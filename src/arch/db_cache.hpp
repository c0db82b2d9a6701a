/**
 * @file
 * The decoded-bytecode cache (DB cache) and its fill unit (§3.3.3).
 *
 * The fill unit watches the decoded instruction stream on the pipeline
 * bypass and packs dependence-free instructions into wide lines — one
 * slot per functional unit (Table 3), with the Stack category given a
 * few micro-slots since R/W sequence numbers rename stack accesses
 * (§3.3.4). A line is closed when:
 *   - an unresolvable RAW dependency appears (the first RAW can be
 *     absorbed by data forwarding between "reconfigurable" units; a
 *     foldable PUSH+consumer pattern eliminates its RAW entirely),
 *   - the required functional-unit slot is already occupied,
 *   - a branch / control / context-switch instruction ends the line
 *     (conservative ILP: nothing after an unresolved branch may issue).
 *
 * A line is identified by the address of its first instruction. On a
 * hit, all instructions in the line issue in a single cycle and their
 * summed gas (the line's G field) is deducted at once.
 */

#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "arch/config.hpp"
#include "evm/trace.hpp"
#include "evm/types.hpp"
#include "obs/tracer.hpp"

namespace mtpu::arch {

/** Global instruction address: contract plus program counter. */
struct CodeAddr
{
    evm::Address code;
    std::uint32_t pc = 0;

    bool
    operator==(const CodeAddr &o) const
    {
        return pc == o.pc && code == o.code;
    }
};

struct CodeAddrHash
{
    std::size_t
    operator()(const CodeAddr &a) const
    {
        return a.code.hashValue() * 1000003u ^ a.pc;
    }
};

/** One instruction slot within a DB-cache line. */
struct LineSlot
{
    std::uint8_t opcode = 0;
    std::uint32_t pc = 0;
    bool folded = false; ///< folded into the next slot's operation
};

/** A DB-cache line (decoded, dependence-resolved instructions). */
struct DbLine
{
    CodeAddr tag;                 ///< address of the first instruction
    std::vector<LineSlot> slots;  ///< program order
    std::uint64_t gasSum = 0;     ///< G field: deducted at once
    std::uint32_t extraLatency = 0; ///< max per-instr extra cycles
    bool usedForwarding = false;  ///< F field populated
    std::uint8_t foldedPairs = 0; ///< IF patterns applied
    bool endsWithBranch = false;  ///< next-address handled by branch unit

    /** Number of original instructions the line covers. */
    std::size_t count() const { return slots.size(); }
};

/** Aggregate fill/hit statistics. */
struct DbCacheStats
{
    std::uint64_t lookups = 0;       ///< line-head lookups
    std::uint64_t lineHits = 0;
    std::uint64_t instrHits = 0;     ///< instructions issued from lines
    std::uint64_t instrMisses = 0;   ///< instructions on the scalar path
    std::uint64_t linesInstalled = 0;
    std::uint64_t linesEvicted = 0;
    std::uint64_t singleDiscarded = 0; ///< 1-instr lines not cached
    std::uint64_t foldedPairs = 0;
    std::uint64_t forwardsUsed = 0;

    double
    hitRatio() const
    {
        std::uint64_t total = instrHits + instrMisses;
        return total ? double(instrHits) / double(total) : 0.0;
    }
};

/**
 * LRU-managed DB cache. The fill unit is integrated: feed it executed
 * instructions via observe(); completed lines are installed
 * automatically.
 */
class DbCache
{
  public:
    explicit DbCache(const MtpuConfig &cfg);

    /** Look up a line starting at @p addr; nullptr on miss. */
    const DbLine *lookup(const CodeAddr &addr);

    /**
     * Feed one executed instruction to the fill unit.
     * @param addr instruction address
     * @param ev the trace event (for gas/latency metadata)
     * @param extra_latency scalar-path extra cycles of this instruction
     */
    void observe(const CodeAddr &addr, const evm::TraceEvent &ev,
                 std::uint32_t extra_latency);

    /** Flush the in-progress fill line (end of transaction/code). */
    void flushFill();

    /** Drop all cached lines (context switch without reuse). */
    void clear();

    const DbCacheStats &stats() const { return stats_; }
    DbCacheStats &stats() { return stats_; }

    std::size_t size() const { return lines_.size(); }
    std::uint32_t capacity() const { return cfg_.dbCacheEntries; }

    /** Entries of the side space that keeps discarded single lines. */
    static constexpr std::size_t kSideSpaceEntries = 64;

    /**
     * Addresses of discarded single-instruction lines, kept in the
     * small side space the paper uses for hotspot path collection
     * (§3.4.1). Cleared by the caller after harvesting; once it holds
     * kSideSpaceEntries, further singles are only counted, so a model
     * nobody harvests stays bounded over any number of blocks.
     */
    std::vector<CodeAddr> &singles() { return singles_; }

    /** Attach a tracer (nullptr detaches); @p lane is the owning PU. */
    void
    setTracer(obs::Tracer *tracer, int lane)
    {
        tracer_ = tracer;
        lane_ = lane;
    }

    /** Set the cycle timestamp for subsequently emitted trace events. */
    void traceAt(std::uint64_t cycle) { traceNow_ = cycle; }

  private:
    struct PendingInstr
    {
        LineSlot slot;
        evm::FuncUnit unit;
        std::uint64_t gas = 0;
        std::uint32_t extraLat = 0;
        std::uint8_t pushes = 0;
        std::uint8_t pops = 0;
    };

    void install();
    bool wouldConflict(const PendingInstr &in, int &raw_producer) const;
    void evictIfFull();

    MtpuConfig cfg_;
    DbCacheStats stats_;

    // Cache proper: map + LRU list of tags.
    std::unordered_map<CodeAddr, DbLine, CodeAddrHash> lines_;
    std::list<CodeAddr> lru_; ///< front = most recent
    std::unordered_map<CodeAddr, std::list<CodeAddr>::iterator,
                       CodeAddrHash> lruPos_;

    // Fill unit state.
    std::vector<PendingInstr> fill_;
    CodeAddr fillTag_;
    int fillForwards_ = 0;
    int fillStackSlots_ = 0;
    bool fillUnitUsed_[evm::kNumFuncUnits] = {};
    /** Virtual stack: producer index within the fill line (-1 = outside). */
    std::vector<int> vstack_;

    std::vector<CodeAddr> singles_;

    obs::Tracer *tracer_ = nullptr;
    int lane_ = -1;
    std::uint64_t traceNow_ = 0;
};

/** True if @p opcode terminates a DB-cache line after inclusion. */
bool terminatesLine(std::uint8_t opcode);

/**
 * True if the producing unit is "reconfigurable" (simple half-cycle
 * logic whose result can be forwarded, §3.3.4).
 */
bool isReconfigurable(evm::FuncUnit unit);

/**
 * True if (PUSH, consumer) folds into a synthetic instruction (§3.3.4
 * pattern table: compare-against-immediate, immediate addresses for
 * memory and hashing, immediate jump targets).
 */
bool isFoldablePattern(std::uint8_t producer, std::uint8_t consumer);

} // namespace mtpu::arch
