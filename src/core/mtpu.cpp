#include "core/mtpu.hpp"

#include "evm/speculative.hpp"
#include "fault/plan.hpp"
#include "obs/metrics.hpp"

namespace mtpu::core {

MtpuProcessor::MtpuProcessor(const arch::MtpuConfig &cfg)
    : cfg_(cfg), pool_(support::ThreadPool::forThreads(cfg.threads))
{}

MtpuProcessor::~MtpuProcessor() = default;

arch::MtpuConfig
MtpuProcessor::variantConfig(const RunOptions &options) const
{
    arch::MtpuConfig cfg = cfg_;
    cfg.enableContextReuse = options.redundancyOpt;
    cfg.retainDbAcrossTxs = options.redundancyOpt;
    return cfg;
}

void
MtpuProcessor::warmup(const workload::BlockRun &block, std::size_t top_n)
{
    hotspot_.collect(block);
    hotspot_.markTopHotspots(top_n);
}

namespace {

/** A spatio-temporal run with functional state (see
 *  MtpuProcessor::execute()). */
sched::EngineStats
commitRun(sched::SpatioTemporalEngine &engine,
          const workload::BlockRun &block, const sched::HintProvider &hints,
          const sched::RecoveryOptions &rec, bool commutative,
          support::ThreadPool *pool)
{
    // One copy of genesis, speculated against on the pool; the step
    // replays a still-valid speculation or re-executes, so the state is
    // bit-identical at any thread count. Re-execution stays on the
    // reference tier: the fast tier's process-wide DecodeCache raised
    // verify-top8's peak RSS by 16%.
    auto live = std::make_shared<evm::WorldState>(*rec.genesis);
    evm::SpecOptions opts;
    opts.commutative = commutative && rec.validateConflicts;
    evm::BlockCommitter committer(*live, block.header, block.transactions(),
                                  opts, pool,
                                  rec.plan ? &rec.plan->aborts : nullptr);

    sched::EngineStats tally;
    auto step = [&](int tx_idx) {
        evm::CommittedTx c = committer.commit(std::size_t(tx_idx));
        if (c.replayed()) {
            ++tally.specReplayed;
            MTPU_OBS_COUNT("spec.commit.replayed", 1);
        } else {
            if (c.verdict == evm::SpecVerdict::BoundsMiss)
                ++tally.reexecBoundsMiss;
            else if (c.verdict)
                ++tally.reexecValidationMiss;
            MTPU_OBS_COUNT("spec.commit.reexecuted", 1);
        }
        if (!c.receipt.success) {
            ++tally.failedTxs;
            if (c.receipt.error == "reverted")
                ++tally.revertedTxs;
        }
        return sched::CommitOutcome{!c.receipt.success, c.replayed()};
    };

    sched::EngineStats stats = engine.run(block, hints, rec, step);
    stats.failedTxs = tally.failedTxs;
    stats.revertedTxs = tally.revertedTxs;
    stats.specReplayed = tally.specReplayed;
    stats.reexecValidationMiss = tally.reexecValidationMiss;
    stats.reexecBoundsMiss = tally.reexecBoundsMiss;
    stats.finalState = std::move(live);
    return stats;
}

} // namespace

sched::EngineStats
MtpuProcessor::execute(const workload::BlockRun &block,
                       const RunOptions &options)
{
    const workload::BlockRun *run = &block;
    workload::BlockRun optimized;
    sched::HintProvider hints;
    if (options.hotspotOpt) {
        optimized = hotspot_.optimize(block);
        run = &optimized;
        hints = hotspot_.hintProvider();
    }

    arch::MtpuConfig cfg = variantConfig(options);
    switch (options.scheme) {
      case Scheme::Sequential: {
          auto &seq = options.redundancyOpt ? seqRedundant_ : seqPlain_;
          if (!seq) {
              arch::MtpuConfig c = cfg;
              c.numPus = 1;
              seq = std::make_unique<baseline::SequentialExecutor>(c);
          }
          return seq->run(*run, hints);
      }
      case Scheme::Synchronous: {
          if (!sync_)
              sync_ = std::make_unique<baseline::SynchronousEngine>(cfg);
          return sync_->run(*run, hints);
      }
      case Scheme::SpatioTemporal: {
          auto &st = options.redundancyOpt ? stRedundant_ : stPlain_;
          if (!st) {
              st = std::make_unique<sched::SpatioTemporalEngine>(cfg);
              st->setTracer(tracer_);
          }
          if (!options.recovery.genesis)
              return st->run(*run, hints, options.recovery);
          return commitRun(*st, *run, hints, options.recovery,
                           cfg_.commutative, pool_.get());
      }
    }
    return {};
}

AuditedRun
MtpuProcessor::executeAudited(const workload::BlockRun &block,
                              const evm::WorldState &genesis,
                              const RunOptions &options)
{
    RunOptions opts = options;
    opts.recovery.genesis = &genesis;

    AuditedRun out;
    out.stats = execute(block, opts);
    fault::Auditor auditor(genesis, block, opts.recovery.plan,
                           cfg_.commutative);
    auditor.usePool(pool_.get());
    out.audit = auditor.audit(out.stats);
    return out;
}

sched::EngineStats
runBaseline(std::unique_ptr<baseline::SequentialExecutor> &seq,
            const arch::MtpuConfig &base_cfg,
            const workload::BlockRun &block)
{
    if (!seq)
        seq = std::make_unique<baseline::SequentialExecutor>(base_cfg);
    seq->reset(); // baseline is always a cold, independent machine
    return seq->run(block);
}

BlockReport
MtpuProcessor::compare(const workload::BlockRun &block,
                       const RunOptions &options)
{
    BlockReport report;
    arch::MtpuConfig base = arch::MtpuConfig::baseline();
    base.lat = cfg_.lat;

    // The scheme under test and the cold sequential baseline touch
    // disjoint engine state, so with a pool they run as two concurrent
    // tasks; each side is deterministic on its own, so the report is
    // identical either way.
    if (support::ThreadPool *pool = pool_.get()) {
        pool->runAll({
            [&] { report.stats = execute(block, options); },
            [&] {
                report.baselineCycles =
                    runBaseline(baseline_, base, block).makespan;
            },
        });
    } else {
        report.stats = execute(block, options);
        report.baselineCycles =
            runBaseline(baseline_, base, block).makespan;
    }
    return report;
}

void
MtpuProcessor::setTracer(obs::Tracer *tracer)
{
    tracer_ = tracer;
    if (stPlain_)
        stPlain_->setTracer(tracer);
    if (stRedundant_)
        stRedundant_->setTracer(tracer);
}

void
MtpuProcessor::reset()
{
    if (stPlain_)
        stPlain_->reset();
    if (stRedundant_)
        stRedundant_->reset();
    if (sync_)
        sync_->reset();
    if (seqPlain_)
        seqPlain_->reset();
    if (seqRedundant_)
        seqRedundant_->reset();
    if (baseline_)
        baseline_->reset();
}

} // namespace mtpu::core
