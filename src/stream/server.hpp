/**
 * @file
 * Long-running streaming front end over the MtpuProcessor: per slot it
 * grants credits to a producer, admits the producer's wire traffic
 * through the bounded mempool, cuts one block under the deadline
 * budget, executes it on the SpatioTemporalEngine with speculative
 * recovery, the serializability Auditor and the watchdog armed, and
 * advances the chain state. Overload degrades gracefully and
 * deterministically: admission sheds by fee/age, credits throttle the
 * producer, and an optional shed-ratio ceiling turns hopeless overload
 * into a clean OverloadAbort instead of unbounded growth or a crash.
 */

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/mtpu.hpp"
#include "persist/persistence.hpp"
#include "stream/builder.hpp"
#include "stream/mempool.hpp"

namespace mtpu::stream {

struct StreamConfig
{
    MempoolConfig pool;
    BuilderConfig block;
    /**
     * Abort the soak when shedTotal / submitted exceeds this ratio
     * after warmupSlots — the graceful way out of an overload no
     * amount of shedding can serve. 1.0 disables the ceiling (shed
     * forever, stay up).
     */
    double maxShedRatio = 1.0;
    std::uint64_t warmupSlots = 8;
    /**
     * Wall-clock budget per slot in microseconds, reported as
     * deadlineMisses when exceeded. Diagnostic only: it never alters
     * block contents, which stay deterministic. 0 disables.
     */
    std::uint64_t slotDeadlineMicros = 0;
    /** Keep every committed BlockRun in the report (tests only —
     *  memory grows with the soak length). */
    bool keepBlocks = false;
};

enum class SoakOutcome
{
    Ok = 0,
    AuditFailure,  ///< a committed block failed the serializability audit
    WatchdogTrip,  ///< the engine watchdog failed a block
    OverloadAbort, ///< shed ratio exceeded maxShedRatio
    /** The replay-skip phase rebuilt a block whose transaction list
     *  does not match the recovered WAL record — the durable history
     *  and the deterministic re-feed diverge, which must never be
     *  papered over (unrecoverable corruption, exit code 5). */
    CorruptionAbort,
};

const char *soakOutcomeName(SoakOutcome o);

/** Per-block row of the soak log. */
struct BlockSummary
{
    std::uint64_t height = 0;
    std::uint64_t slot = 0;
    std::size_t txs = 0;
    std::uint64_t makespan = 0;
    std::uint64_t conflictAborts = 0;
    std::uint64_t retries = 0;
    std::size_t poolDepthAfter = 0;
    bool auditOk = true;
};

/** Everything a soak run learned. */
struct SoakReport
{
    SoakOutcome outcome = SoakOutcome::Ok;
    std::uint64_t slots = 0;
    std::uint64_t blocks = 0;      ///< non-empty blocks committed
    std::uint64_t emptyBlocks = 0; ///< slots with nothing ready

    // Producer-side flow control.
    std::uint64_t offered = 0;   ///< txs the producer wanted to send
    std::uint64_t submitted = 0; ///< txs actually submitted
    std::uint64_t producerHeldBack = 0; ///< offered - submitted (credits)

    MempoolStats pool; ///< final admission/shedding accounting

    // Execution totals.
    std::uint64_t committedTxs = 0;
    /** Committed txs whose receipt failed, total (= revertedReceipts
     *  + executionFailures; DESIGN.md §11 failed-receipt policy). */
    std::uint64_t failedReceipts = 0;
    /** Expected contract-level REVERTs (business-logic declines). */
    std::uint64_t revertedReceipts = 0;
    /** Real failures: out-of-gas, intrinsic gas, halts. */
    std::uint64_t executionFailures = 0;
    std::uint64_t conflictAborts = 0;
    std::uint64_t retries = 0;
    int auditFailures = 0;
    bool watchdogFired = false;
    std::uint64_t deadlineMisses = 0;

    // Durability (zero when no persistence is attached).
    std::uint64_t replayedBlocks = 0; ///< recovered blocks skipped live
    std::uint64_t replayedTxs = 0;
    std::uint64_t walAppends = 0;
    std::uint64_t walBytes = 0;
    std::uint64_t snapshotsWritten = 0;
    bool walBroken = false; ///< persistence stopped mid-run (I/O fail)

    /** Enqueue→commit latency in slots, one entry per committed tx
     *  (sorted ascending after the run). */
    std::vector<std::uint64_t> latencySlots;
    double latencyP50 = 0.0;
    double latencyP90 = 0.0;
    double latencyP99 = 0.0;
    double latencyMean = 0.0;
    /**
     * Latency over only the txs that waited at least one slot. The
     * all-tx p50 is legitimately 0 whenever same-slot commits are the
     * majority (fresh high-fee arrivals win the price-time cut while
     * older low-fee heads starve); the queued-only view shows the
     * tail the aggregate median hides.
     */
    std::uint64_t queuedTxs = 0;
    double queuedP50 = 0.0;
    double queuedP99 = 0.0;

    U256 chainDigest; ///< digest of the final chain state
    double wallSeconds = 0.0;

    std::vector<BlockSummary> blockLog;
    std::vector<workload::BlockRun> committedBlocks; ///< keepBlocks only

    /** Committed tx throughput per slot — the degradation metric. */
    double
    committedPerSlot() const
    {
        return slots ? double(committedTxs) / double(slots) : 0.0;
    }
};

class StreamServer
{
  public:
    /**
     * The producer callback: given the slot number and the credit
     * grant, return the wire transactions to submit this slot. A
     * well-behaved producer returns at most @p credits transactions; a
     * byzantine one may exceed the grant and eats cheap
     * RejectedNoCredit bounces.
     */
    using Producer = std::function<std::vector<workload::WireTx>(
        std::uint64_t slot, std::size_t credits)>;

    /**
     * @param cfg      mtpu hardware config for the processor
     * @param run      execution options; conflict validation is forced
     *                 on (the stream path always runs recovered+audited)
     * @param genesis  chain state the stream starts from (copied)
     * @param set      contract universe for label resolution
     */
    StreamServer(const arch::MtpuConfig &cfg, const core::RunOptions &run,
                 const evm::WorldState &genesis,
                 const contracts::ContractSet &set,
                 const StreamConfig &stream_cfg);

    /** Drive @p slots slots (one block cut per slot) to completion or
     *  abort. Can be called repeatedly; the chain state persists. */
    SoakReport run(const Producer &producer, std::uint64_t slots);

    /**
     * Attach the durability subsystem (non-owning; recover() must
     * already have run). Two effects on run(): committed blocks are
     * WAL-appended and snapshotted per the persist config, and blocks
     * whose height is at or below the recovered height are cut but
     * not re-executed — the producer re-feeds the same wire stream
     * from slot 0 (all pool evolution is a pure function of it), the
     * cut transaction list is verified against the recovered WAL
     * record, and the chain state stays the recovered one. This is
     * what makes a kill-and-restart run reach a final digest
     * bit-identical to an uninterrupted one.
     */
    void attachPersistence(persist::Persistence *p) { persist_ = p; }

    /** Replace the chain state with the recovered one. */
    void
    setChainState(const evm::WorldState &state)
    {
        chain_ = state;
    }

    const Mempool &mempool() const { return pool_; }

  private:
    StreamConfig cfg_;
    core::RunOptions run_;
    core::MtpuProcessor proc_;
    Mempool pool_;
    BlockBuilder builder_;
    evm::WorldState chain_;
    std::uint64_t slotCursor_ = 0;
    persist::Persistence *persist_ = nullptr;
};

} // namespace mtpu::stream
