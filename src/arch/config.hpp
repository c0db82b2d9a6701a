/**
 * @file
 * Configuration of the MTPU cycle-level model: structure sizes from
 * Table 5, per-unit latencies, and feature toggles matching the paper's
 * ablations (F&D / DF / IF in Fig. 12, redundancy and hotspot
 * optimization in Fig. 16).
 */

#pragma once

#include <cstdint>

namespace mtpu::arch {

/** Latency parameters of the PU pipeline and memory hierarchy. */
struct LatencyConfig
{
    // -- scalar pipeline ------------------------------------------------
    /** Extra cycles for 256-bit multiply. */
    std::uint32_t mulExtra = 2;
    /** Extra cycles for 256-bit divide/mod. */
    std::uint32_t divExtra = 4;
    /** Extra cycles for EXP (per invocation, amortized). */
    std::uint32_t expExtra = 6;
    /** Extra cycles for SHA3 setup (dedicated pipelined unit). */
    std::uint32_t sha3Base = 4;
    /** Extra SHA3 cycles per 32-byte word hashed. */
    std::uint32_t sha3PerWord = 1;
    /** Redirect bubbles after a taken branch (no prediction). */
    std::uint32_t branchRedirect = 2;
    /** Extra cycles for in-core MEM access (MLOAD/MSTORE/copies). */
    std::uint32_t memExtra = 1;
    /** Extra cycles for a buffered storage write (SSTORE). */
    std::uint32_t storeBuffered = 1;
    /** Context-switch overhead for the CALL family. */
    std::uint32_t callOverhead = 20;

    // -- memory hierarchy ------------------------------------------------
    /** In-core data-cache hit (prefetched or hot data). */
    std::uint32_t dcacheHit = 1;
    /** Execution-environment (State Buffer) access. */
    std::uint32_t stateBufferHit = 4;
    /** Main-memory access (state miss). */
    std::uint32_t mainMemory = 10;
    /** Bytes loaded per cycle when streaming context/bytecode. */
    std::uint32_t loadBandwidth = 64;
};

/** Feature toggles and structure sizes. */
struct MtpuConfig
{
    /** Number of processing units (the paper synthesizes 4). */
    int numPus = 4;

    /** Candidate-window size m of the scheduling tables (§3.2). */
    int windowSize = 8;

    // -- DB cache ---------------------------------------------------------
    /** DB-cache capacity in lines ("entries"; Fig. 13 sweeps this). */
    std::uint32_t dbCacheEntries = 2048;
    /**
     * Max stack-category micro-slots per line (R/W renaming, §3.3.4).
     * Three slots reflect a bounded multi-port stack engine; folding
     * (IF) frees slots and measurably lengthens lines at this budget.
     */
    int stackSlotsPerLine = 3;
    /** At most one RAW absorbed per line by forwarding (§3.3.4). */
    int maxForwardsPerLine = 1;

    // -- feature toggles (ablations) --------------------------------------
    bool enableDbCache = true;    ///< F&D: fill unit + DB cache
    bool enableForwarding = true; ///< DF: data forwarding between units
    bool enableFolding = true;    ///< IF: pattern folding
    bool forceDbHit = false;      ///< Fig. 12 upper bound: 100% hit rate
    bool enableContextReuse = true; ///< redundant-tx bytecode reuse
    /**
     * Keep DB-cache lines across transactions (the temporal half of
     * the redundancy optimization, §3.3.5). Off: decoded lines are
     * discarded at transaction boundaries.
     */
    bool retainDbAcrossTxs = true;
    bool enableHotspot = false;   ///< §3.4 hotspot optimization

    // -- memory structures (Table 5 capacities) ---------------------------
    std::uint32_t stateBufferEntries = 32768; ///< 2 MB / 64 B lines
    std::uint32_t dcacheEntries = 1024;       ///< 64 KB / 64 B lines
    std::uint32_t callContractStackBytes = 417 * 1024;

    // -- host execution backend -------------------------------------------
    /**
     * Host threads of the processor's one pool (DESIGN.md §9), resolved
     * by support::ThreadPool::resolveThreads(); 1 = serial. Results are
     * bit-identical at every value: it only trades host wall time.
     */
    int threads = 0;

    /**
     * Commutativity-aware conflict taming (DESIGN.md §14): commit
     * speculative storage writes recorded as commutative deltas by
     * range validation + arithmetic replay instead of exact pre-value
     * match, and elide DAG edges between transactions whose only
     * overlap is mutually commutative delta traffic. Off by default:
     * the exact scheme stays the shipped behaviour.
     */
    bool commutative = false;

    LatencyConfig lat;

    /** Baseline single-PU configuration with no ILP (paper's baseline). */
    static MtpuConfig
    baseline()
    {
        MtpuConfig cfg;
        cfg.numPus = 1;
        cfg.enableDbCache = false;
        cfg.enableForwarding = false;
        cfg.enableFolding = false;
        cfg.enableContextReuse = false;
        cfg.enableHotspot = false;
        return cfg;
    }
};

} // namespace mtpu::arch
