/**
 * @file
 * Determinism contract of the host-parallel backend (DESIGN.md §9):
 * for any thread count, the processor's committed engine runs and
 * the parallel consensus stage must produce BIT-IDENTICAL results —
 * completion orders, state digests, engine statistics, audit verdicts
 * and block serializations. These tests pin thread counts explicitly (1, 2, 4,
 * 8) so the pool is exercised even on single-core CI machines.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/mtpu.hpp"
#include "fault/auditor.hpp"
#include "fault/injector.hpp"
#include "obs/tracer.hpp"
#include "workload/packs.hpp"
#include "workload/workload.hpp"

namespace mtpu {
namespace {

using sched::EngineStats;
using workload::BlockParams;
using workload::BlockRun;
using workload::Generator;

BlockParams
mixedParams(int txs, double dep)
{
    BlockParams p;
    p.txCount = txs;
    p.depRatio = dep;
    p.erc20Share = -1.0; // natural TOP8 mix
    return p;
}

/**
 * Recovered run options with functional state from @p genesis.
 * redundancyOpt keeps MtpuConfig's default context reuse and DB-line
 * retention.
 */
core::RunOptions
functionalRun(const evm::WorldState &genesis)
{
    core::RunOptions run;
    run.redundancyOpt = true;
    run.recovery.validateConflicts = true;
    run.recovery.genesis = &genesis;
    return run;
}

/** Every observable field two engine runs must agree on. */
void
expectStatsEqual(const EngineStats &a, const EngineStats &b,
                 const std::string &what)
{
    EXPECT_EQ(a.completionOrder, b.completionOrder) << what;
    EXPECT_EQ(a.makespan, b.makespan) << what;
    EXPECT_EQ(a.busyCycles, b.busyCycles) << what;
    EXPECT_EQ(a.seqCycles, b.seqCycles) << what;
    EXPECT_EQ(a.instructions, b.instructions) << what;
    EXPECT_EQ(a.redundantSteers, b.redundantSteers) << what;
    EXPECT_EQ(a.conflictAborts, b.conflictAborts) << what;
    EXPECT_EQ(a.puFaultAborts, b.puFaultAborts) << what;
    EXPECT_EQ(a.injectedAborts, b.injectedAborts) << what;
    EXPECT_EQ(a.retries, b.retries) << what;
    EXPECT_EQ(a.failedTxs, b.failedTxs) << what;
    EXPECT_EQ(a.watchdogFired, b.watchdogFired) << what;
    ASSERT_EQ(a.finalState != nullptr, b.finalState != nullptr) << what;
    if (a.finalState && b.finalState) {
        EXPECT_EQ(a.finalState->digest(), b.finalState->digest()) << what;
    }
}

TEST(Determinism, ConsensusStageIdenticalAcrossThreads)
{
    for (std::uint64_t seed : {1ull, 99ull}) {
        Generator serial(seed, 256, /*threads=*/1);
        Generator pooled(seed, 256, /*threads=*/4);

        BlockRun a = serial.generateBlock(mixedParams(96, 0.4));
        BlockRun b = pooled.generateBlock(mixedParams(96, 0.4));

        // The full network serialization (header, txs, DAG, redundancy
        // values) must be byte-identical...
        EXPECT_EQ(a.toRlp(), b.toRlp()) << "seed " << seed;

        // ...and so must the parts it does not carry: receipts, traces
        // and the consensus-stage access sets.
        ASSERT_EQ(a.txs.size(), b.txs.size());
        for (std::size_t i = 0; i < a.txs.size(); ++i) {
            EXPECT_EQ(a.txs[i].receipt.toRlp(), b.txs[i].receipt.toRlp())
                << "tx " << i;
            EXPECT_EQ(a.txs[i].trace.events.size(),
                      b.txs[i].trace.events.size())
                << "tx " << i;
            EXPECT_EQ(a.txs[i].access.reads, b.txs[i].access.reads)
                << "tx " << i;
            EXPECT_EQ(a.txs[i].access.writes, b.txs[i].access.writes)
                << "tx " << i;
        }
    }
}

/** Run a seeded three-block recovery sequence at one thread count. */
std::vector<EngineStats>
runSequence(const std::vector<BlockRun> &blocks,
            const evm::WorldState &genesis, int threads)
{
    arch::MtpuConfig cfg;
    cfg.threads = threads;
    core::MtpuProcessor proc(cfg);

    std::vector<EngineStats> out;
    for (const BlockRun &block : blocks)
        out.push_back(proc.execute(block, functionalRun(genesis)));
    return out;
}

TEST(Determinism, EngineIdenticalAcrossThreads)
{
    Generator gen(7, 512, /*threads=*/1);
    std::vector<BlockRun> blocks;
    for (double dep : {0.0, 0.3, 0.6})
        blocks.push_back(gen.generateBlock(mixedParams(64, dep)));

    auto ref = runSequence(blocks, gen.genesis(), 1);
    for (const EngineStats &stats : ref)
        ASSERT_FALSE(stats.watchdogFired);

    for (int threads : {2, 4, 8}) {
        auto got = runSequence(blocks, gen.genesis(), threads);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t b = 0; b < ref.size(); ++b) {
            expectStatsEqual(ref[b], got[b],
                             "block " + std::to_string(b) + " at "
                                 + std::to_string(threads) + " threads");
        }
    }
}

/** Faulted variant: degraded DAG, injected aborts, one killed PU. */
std::vector<EngineStats>
runFaultedSequence(const std::vector<BlockRun> &blocks,
                   const std::vector<fault::FaultPlan> &plans,
                   const evm::WorldState &genesis, int threads,
                   std::vector<bool> *audits)
{
    arch::MtpuConfig cfg;
    cfg.threads = threads;
    core::MtpuProcessor proc(cfg);

    std::vector<EngineStats> out;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        core::RunOptions run = functionalRun(genesis);
        run.recovery.plan = &plans[b];
        out.push_back(proc.execute(blocks[b], run));

        fault::Auditor auditor(genesis, blocks[b], &plans[b]);
        audits->push_back(auditor.audit(out.back()).ok());
    }
    return out;
}

TEST(Determinism, FaultedRecoveryIdenticalAcrossThreads)
{
    Generator gen(21, 512, /*threads=*/1);
    fault::FaultInjector inj(42);

    fault::InjectionParams params;
    params.dropEdgeRate = 0.5;
    params.abortRate = 0.15;
    params.numPus = 4;
    params.puFaultCount = 1;

    std::vector<BlockRun> degraded;
    std::vector<fault::FaultPlan> plans;
    for (int b = 0; b < 3; ++b) {
        BlockRun block = gen.generateBlock(mixedParams(64, 0.4));
        plans.push_back(inj.plan(block, params));
        degraded.push_back(fault::FaultInjector::degrade(block, plans.back()));
    }

    std::vector<bool> ref_audits;
    auto ref = runFaultedSequence(degraded, plans, gen.genesis(), 1,
                                  &ref_audits);
    for (bool ok : ref_audits)
        EXPECT_TRUE(ok); // recovery must survive the injected faults

    for (int threads : {2, 8}) {
        std::vector<bool> audits;
        auto got = runFaultedSequence(degraded, plans, gen.genesis(),
                                      threads, &audits);
        EXPECT_EQ(audits, ref_audits);
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t b = 0; b < ref.size(); ++b) {
            expectStatsEqual(ref[b], got[b],
                             "faulted block " + std::to_string(b) + " at "
                                 + std::to_string(threads) + " threads");
        }
    }
}

/**
 * The determinism contract extends to the cycle-level trace: the
 * deterministic-domain event stream is a pure function of the blocks
 * and the configuration, so a multi-block run (epoch-rebased
 * timestamps) must export byte-identical canonical text and Chrome
 * JSON at every host thread count. Host-domain events (the phase-1
 * commit-path choice) legitimately differ and stay excluded.
 */
TEST(Determinism, TraceIdenticalAcrossThreads)
{
    Generator gen(7, 512, /*threads=*/1);
    std::vector<BlockRun> blocks;
    for (double dep : {0.0, 0.4})
        blocks.push_back(gen.generateBlock(mixedParams(48, dep)));

    auto traceSequence = [&](int threads) {
        arch::MtpuConfig cfg;
        cfg.threads = threads;
        core::MtpuProcessor proc(cfg);
        obs::Tracer tracer;
        proc.setTracer(&tracer);
        for (const BlockRun &block : blocks)
            proc.execute(block, functionalRun(gen.genesis()));
        EXPECT_EQ(tracer.dropped(), 0u);
        return std::make_pair(tracer.canonical(), tracer.chromeJson());
    };

    auto ref = traceSequence(1);
    ASSERT_FALSE(ref.first.empty());
    for (int threads : {2, 8}) {
        auto got = traceSequence(threads);
        EXPECT_EQ(got.first, ref.first)
            << "canonical trace diverged at " << threads << " threads";
        EXPECT_EQ(got.second, ref.second)
            << "chrome export diverged at " << threads << " threads";
    }
}

/** Faulted variant: recovery traces are deterministic too. */
TEST(Determinism, FaultedTraceIdenticalAcrossThreads)
{
    Generator gen(21, 512, /*threads=*/1);
    fault::FaultInjector inj(42);

    fault::InjectionParams params;
    params.dropEdgeRate = 0.5;
    params.abortRate = 0.15;
    params.numPus = 4;
    params.puFaultCount = 1;

    BlockRun block = gen.generateBlock(mixedParams(48, 0.4));
    fault::FaultPlan plan = inj.plan(block, params);
    BlockRun degraded = fault::FaultInjector::degrade(block, plan);

    auto traceOnce = [&](int threads) {
        arch::MtpuConfig cfg;
        cfg.threads = threads;
        core::MtpuProcessor proc(cfg);
        obs::Tracer tracer;
        proc.setTracer(&tracer);
        core::RunOptions run = functionalRun(gen.genesis());
        run.recovery.plan = &plan;
        proc.execute(degraded, run);
        return tracer.canonical();
    };

    const std::string ref = traceOnce(1);
    ASSERT_FALSE(ref.empty());
    for (int threads : {2, 8})
        EXPECT_EQ(traceOnce(threads), ref)
            << "faulted trace diverged at " << threads << " threads";
}

/**
 * The schedule does not depend on the commit step (DESIGN.md §8): a
 * pack block under a seeded plan with injected aborts, dropped edges
 * and a PU stall runs once cycle-only and once through the processor
 * with genesis. The engine's event loop decides every dispatch from
 * the DAG and the access sets, so both runs report the same schedule
 * and the same deterministic trace; only TxCommit's failed flag may
 * differ, because the cycle-only run executes no receipt.
 */
TEST(Determinism, ScheduleIndependentOfTheCommitStep)
{
    Generator gen(31, 256, /*threads=*/1);
    workload::PackParams pp;
    pp.txCount = 48;
    BlockRun block = workload::buildPackBlock(gen, workload::Pack::FlashLoan, pp);

    fault::FaultInjector inj(42);
    fault::InjectionParams params;
    params.dropEdgeRate = 0.5;
    params.abortRate = 0.15;
    params.numPus = 4;
    params.puFaultCount = 1;
    params.killPu = false; // a stall
    fault::FaultPlan plan = inj.plan(block, params);
    BlockRun degraded = fault::FaultInjector::degrade(block, plan);

    struct Run
    {
        EngineStats stats;
        std::vector<obs::TraceRecord> trace;
    };
    auto runOnce = [&](const evm::WorldState *genesis) {
        arch::MtpuConfig cfg;
        cfg.threads = 2;
        core::MtpuProcessor proc(cfg);
        obs::Tracer tracer;
        proc.setTracer(&tracer);
        core::RunOptions run = functionalRun(gen.genesis());
        run.recovery.genesis = genesis;
        run.recovery.plan = &plan;
        Run out{proc.execute(degraded, run), tracer.records()};
        EXPECT_EQ(tracer.dropped(), 0u);
        return out;
    };
    const Run cycle = runOnce(nullptr);
    const Run committed = runOnce(&gen.genesis());

    ASSERT_FALSE(cycle.stats.watchdogFired);
    ASSERT_FALSE(committed.stats.watchdogFired);
    EXPECT_EQ(cycle.stats.finalState, nullptr);
    ASSERT_NE(committed.stats.finalState, nullptr);
    EXPECT_EQ(committed.stats.completionOrder, cycle.stats.completionOrder);
    EXPECT_EQ(committed.stats.makespan, cycle.stats.makespan);
    EXPECT_EQ(committed.stats.busyCycles, cycle.stats.busyCycles);
    EXPECT_EQ(committed.stats.conflictAborts, cycle.stats.conflictAborts);
    EXPECT_EQ(committed.stats.retries, cycle.stats.retries);
    EXPECT_EQ(committed.stats.stalls, cycle.stats.stalls);
    EXPECT_EQ(committed.stats.redundantSteers,
              cycle.stats.redundantSteers);

    // The plan's faults all took effect on this block.
    EXPECT_GT(cycle.stats.conflictAborts, 0u);
    EXPECT_GT(committed.stats.failedTxs, 0u);
    ASSERT_EQ(plan.puFaults.size(), 1u);
    EXPECT_FALSE(plan.puFaults.front().kill);

    // Same deterministic trace, TxCommit's failed flag aside.
    auto withoutCommitFlag = [](std::vector<obs::TraceRecord> trace) {
        for (obs::TraceRecord &r : trace) {
            if (r.kind == obs::TraceKind::TxCommit)
                r.a1 = 0;
        }
        return trace;
    };
    const auto a = withoutCommitFlag(cycle.trace);
    const auto b = withoutCommitFlag(committed.trace);
    ASSERT_EQ(a.size(), b.size());
    bool stalled = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(a[i].ts == b[i].ts && a[i].dur == b[i].dur
                    && a[i].a0 == b[i].a0 && a[i].a1 == b[i].a1
                    && a[i].kind == b[i].kind && a[i].lane == b[i].lane)
            << "trace record " << i << " differs";
        stalled |= a[i].kind == obs::TraceKind::PuStallFault;
    }
    EXPECT_TRUE(stalled) << "the PU stall never fired";
}

} // namespace
} // namespace mtpu
