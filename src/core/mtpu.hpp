/**
 * @file
 * Public facade of the MTPU library: configure a transaction
 * processor, feed it blocks, and compare execution schemes. This is
 * the entry point downstream users (and the examples/) consume.
 */

#pragma once

#include <memory>
#include <string>

#include "arch/area.hpp"
#include "arch/config.hpp"
#include "baseline/baseline.hpp"
#include "fault/auditor.hpp"
#include "hotspot/hotspot.hpp"
#include "sched/engine.hpp"
#include "workload/workload.hpp"

namespace mtpu::core {

/** Execution schemes evaluated in §4.3 (Figs. 14-16). */
enum class Scheme
{
    Sequential,       ///< single PU, program order (baseline)
    Synchronous,      ///< barrier rounds over numPus
    SpatioTemporal,   ///< §3.2 asynchronous scheduling
};

/** Optimization stack applied on top of the scheme. */
struct RunOptions
{
    Scheme scheme = Scheme::SpatioTemporal;
    /** Redundancy optimization: context + DB-cache reuse (Fig. 16a). */
    bool redundancyOpt = false;
    /** Hotspot optimization: §3.4 (Fig. 16b). Requires warmup(). */
    bool hotspotOpt = false;
    /**
     * Speculative-conflict recovery, fault injection and the watchdog
     * (SpatioTemporal scheme only; the comparator schemes execute the
     * shipped DAG as-is).
     */
    sched::RecoveryOptions recovery;

    /**
     * Host threads for this run's engine (MtpuConfig::threads):
     * -1 inherits the processor configuration, 0 resolves to
     * support::ThreadPool::defaultThreads(), >= 1 is explicit.
     * Captured when the (scheme, redundancy) engine variant is first
     * created; results are bit-identical at every value.
     */
    int threads = -1;
};

/** An executed block plus its serializability audit. */
struct AuditedRun
{
    sched::EngineStats stats;
    fault::AuditReport audit;

    bool ok() const { return audit.ok() && !stats.watchdogFired; }
};

/** Speedup comparison of one run against the sequential baseline. */
struct BlockReport
{
    sched::EngineStats stats;
    std::uint64_t baselineCycles = 0;

    double
    speedup() const
    {
        return stats.makespan
                   ? double(baselineCycles) / double(stats.makespan)
                   : 0.0;
    }
};

/**
 * The transaction processor. Owns the PU models and engines; PUs keep
 * microarchitectural state across blocks, as hardware would.
 */
class MtpuProcessor
{
  public:
    explicit MtpuProcessor(const arch::MtpuConfig &cfg);
    ~MtpuProcessor();

    /**
     * Offline hotspot collection over an executed block (the block
     * interval of §3.4); marks the TOP-@p top_n entries hot.
     */
    void warmup(const workload::BlockRun &block, std::size_t top_n = 16);

    /** Execute a block under the given scheme/optimizations. */
    sched::EngineStats execute(const workload::BlockRun &block,
                               const RunOptions &options);

    /**
     * Execute under @p options with functional state from @p genesis,
     * then audit the committed completion order for serializability
     * (fault::Auditor). The audit uses options.recovery.plan, so runs
     * with injected faults are judged against matching semantics.
     */
    AuditedRun executeAudited(const workload::BlockRun &block,
                              const evm::WorldState &genesis,
                              const RunOptions &options);

    /**
     * Execute under @p options and also under the single-PU sequential
     * baseline (fresh state), reporting the speedup.
     */
    BlockReport compare(const workload::BlockRun &block,
                        const RunOptions &options);

    /** Area/power model for the current configuration (Table 5). */
    arch::AreaModel area() const { return arch::AreaModel(cfg_); }

    const arch::MtpuConfig &config() const { return cfg_; }

    /** Reset all engines' microarchitectural state. */
    void reset();

    /**
     * Attach a cycle-level tracer to the spatio-temporal engines
     * (existing and lazily created later); nullptr detaches. The
     * comparator baselines stay untraced — the trace describes the
     * MTPU schedule, not the reference executors.
     */
    void setTracer(obs::Tracer *tracer);

  private:
    arch::MtpuConfig
    variantConfig(const RunOptions &options) const;

    /** Lazily created host pool for compare()'s scheme-vs-baseline
     *  fan-out and the audit digests; null when threads resolve to 1. */
    support::ThreadPool *hostPool();

    arch::MtpuConfig cfg_;
    hotspot::HotspotOptimizer hotspot_;
    std::unique_ptr<support::ThreadPool> pool_;
    bool poolInit_ = false;

    obs::Tracer *tracer_ = nullptr;

    // Engines are created lazily per (scheme, redundancy) variant.
    std::unique_ptr<sched::SpatioTemporalEngine> stPlain_;
    std::unique_ptr<sched::SpatioTemporalEngine> stRedundant_;
    std::unique_ptr<baseline::SynchronousEngine> sync_;
    std::unique_ptr<baseline::SequentialExecutor> seqPlain_;
    std::unique_ptr<baseline::SequentialExecutor> seqRedundant_;
    std::unique_ptr<baseline::SequentialExecutor> baseline_;
};

} // namespace mtpu::core
