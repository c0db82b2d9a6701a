/**
 * @file
 * Differential metrics test (DESIGN.md §10): the tracer, the metrics
 * registry and EngineStats are three independent accountings of the
 * same run, so they must reconcile exactly. Per-lane tx_exec span
 * durations must sum to the engine's per-PU busy cycles, db_hit events
 * to the DB-cache hit counters, ctx_load durations to the context-load
 * cycles, and the sched.* counters to the EngineStats fields.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "evm/speculative.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "sched/engine.hpp"
#include "workload/workload.hpp"

namespace mtpu {
namespace {

TEST(DifferentialMetrics, TraceReconcilesWithEngineStats)
{
    workload::Generator gen(11, 256, /*threads=*/1);
    workload::BlockParams p;
    p.txCount = 96;
    p.depRatio = 0.35;
    p.erc20Share = -1.0; // natural TOP8 mix
    workload::BlockRun block = gen.generateBlock(p);

    obs::Registry &reg = obs::Registry::global();
    reg.reset();
    reg.enable(true);

    arch::MtpuConfig cfg;
    sched::SpatioTemporalEngine engine(cfg);
    obs::Tracer tracer;
    engine.setTracer(&tracer);

    // The engine holds no functional state: this test supplies the
    // commit step that core::MtpuProcessor would, over its own copy of
    // genesis, so the run still commits every transaction.
    evm::WorldState live = gen.genesis();
    evm::BlockCommitter committer(live, block.header, block.transactions(),
                                  evm::SpecOptions{});
    auto commit = [&](int tx) {
        evm::CommittedTx c = committer.commit(std::size_t(tx));
        return sched::CommitOutcome{!c.receipt.success, c.replayed()};
    };

    sched::RecoveryOptions rec;
    rec.validateConflicts = true;
    sched::EngineStats stats = engine.run(block, {}, rec, commit);
    obs::Snapshot snap = reg.snapshot();
    reg.enable(false);

    ASSERT_FALSE(stats.watchdogFired);
    ASSERT_EQ(tracer.dropped(), 0u) << "ring too small for this block";

    // ---- accounting #1: fold the trace back into aggregates --------
    std::vector<std::uint64_t> laneBusy(stats.puBusy.size(), 0);
    std::uint64_t execCount = 0, execDur = 0, execInstr = 0;
    std::uint64_t stallCount = 0, steerCount = 0, commitCount = 0;
    std::uint64_t conflictCount = 0, dbHitCount = 0, dbHitInstr = 0;
    std::uint64_t ctxLoadDur = 0, maxEnd = 0;
    for (const obs::TraceRecord &r : tracer.records()) {
        maxEnd = std::max(maxEnd, r.ts + r.dur);
        switch (r.kind) {
          case obs::TraceKind::TxExec:
            ++execCount;
            execDur += r.dur;
            execInstr += r.a1;
            ASSERT_GE(r.lane, 0);
            ASSERT_LT(std::size_t(r.lane), laneBusy.size());
            laneBusy[std::size_t(r.lane)] += r.dur;
            break;
          case obs::TraceKind::CtxLoad:         ctxLoadDur += r.dur; break;
          case obs::TraceKind::SchedStall:      ++stallCount; break;
          case obs::TraceKind::SchedSteer:      ++steerCount; break;
          case obs::TraceKind::TxCommit:        ++commitCount; break;
          case obs::TraceKind::TxConflictAbort: ++conflictCount; break;
          case obs::TraceKind::DbHit:
            ++dbHitCount;
            dbHitInstr += r.a1;
            break;
          default: break;
        }
    }

    // ---- trace vs EngineStats --------------------------------------
    EXPECT_EQ(execDur, stats.busyCycles);
    for (std::size_t lane = 0; lane < laneBusy.size(); ++lane)
        EXPECT_EQ(laneBusy[lane], stats.puBusy[lane]) << "PU " << lane;
    EXPECT_EQ(execInstr, stats.instructions);
    EXPECT_EQ(stallCount, stats.stalls);
    EXPECT_EQ(steerCount, stats.redundantSteers);
    EXPECT_EQ(commitCount, stats.txCount);
    EXPECT_EQ(conflictCount, stats.conflictAborts);
    // Every dispatch ends in exactly one tx_exec span, then commits or
    // aborts (no PU faults are injected here).
    EXPECT_EQ(execCount, stats.txCount + stats.conflictAborts);
    // The last span to end defines the makespan (fresh tracer: epoch
    // base 0, so timestamps are raw engine cycles).
    EXPECT_EQ(maxEnd, stats.makespan);

    // ---- trace vs microarchitectural counters ----------------------
    std::uint64_t lineHits = 0, instrHits = 0, loadCycles = 0;
    for (int i = 0; i < cfg.numPus; ++i) {
        lineHits += engine.pu(i).dbCache().stats().lineHits;
        instrHits += engine.pu(i).dbCache().stats().instrHits;
        loadCycles += engine.pu(i).stats().loadCycles;
    }
    EXPECT_EQ(dbHitCount, lineHits);
    EXPECT_EQ(dbHitInstr, instrHits);
    EXPECT_EQ(ctxLoadDur, loadCycles);

    // ---- metrics registry vs EngineStats ---------------------------
    // (compiled out with -DMTPU_OBS=OFF; the trace checks above still
    // run there because the tracer is runtime-attached, not macro-gated)
#if MTPU_OBS_ENABLED
    EXPECT_EQ(snap.counter("sched.blocks"), 1u);
    EXPECT_EQ(snap.counter("sched.txs_committed"), stats.txCount);
    EXPECT_EQ(snap.counter("sched.stalls"), stats.stalls);
    EXPECT_EQ(snap.counter("sched.redundant_steers"),
              stats.redundantSteers);
    EXPECT_EQ(snap.counter("sched.conflict_aborts"), stats.conflictAborts);
    EXPECT_EQ(snap.counter("sched.retries"), stats.retries);
    EXPECT_EQ(snap.counter("sched.makespan_cycles"), stats.makespan);
    EXPECT_EQ(snap.counter("sched.busy_cycles"), stats.busyCycles);
    EXPECT_EQ(snap.counter("db.line_hits"), lineHits);
#else
    (void)snap;
#endif

    // The three accountings agreed on a non-trivial run.
    EXPECT_GT(stats.txCount, 0u);
    EXPECT_GT(dbHitCount, 0u);
    EXPECT_GT(stallCount + steerCount, 0u);
}

} // namespace
} // namespace mtpu
