/**
 * @file
 * Determinism contract of the host-parallel backend (DESIGN.md §9):
 * for any thread count, the two-phase engine and the parallel
 * consensus stage must produce BIT-IDENTICAL results — completion
 * orders, state digests, engine statistics, audit verdicts and block
 * serializations. These tests pin thread counts explicitly (1, 2, 4,
 * 8) so the pool is exercised even on single-core CI machines.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/auditor.hpp"
#include "fault/injector.hpp"
#include "obs/tracer.hpp"
#include "sched/engine.hpp"
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
    sched::SpatioTemporalEngine engine(cfg);

    std::vector<EngineStats> out;
    for (const BlockRun &block : blocks) {
        sched::RecoveryOptions rec;
        rec.validateConflicts = true;
        rec.genesis = &genesis;
        out.push_back(engine.run(block, {}, rec));
    }
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
    sched::SpatioTemporalEngine engine(cfg);

    std::vector<EngineStats> out;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        sched::RecoveryOptions rec;
        rec.validateConflicts = true;
        rec.genesis = &genesis;
        rec.plan = &plans[b];
        out.push_back(engine.run(blocks[b], {}, rec));

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
        sched::SpatioTemporalEngine engine(cfg);
        obs::Tracer tracer;
        engine.setTracer(&tracer);
        for (const BlockRun &block : blocks) {
            sched::RecoveryOptions rec;
            rec.validateConflicts = true;
            rec.genesis = &gen.genesis();
            engine.run(block, {}, rec);
        }
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
        sched::SpatioTemporalEngine engine(cfg);
        obs::Tracer tracer;
        engine.setTracer(&tracer);
        sched::RecoveryOptions rec;
        rec.validateConflicts = true;
        rec.genesis = &gen.genesis();
        rec.plan = &plan;
        engine.run(degraded, {}, rec);
        return tracer.canonical();
    };

    const std::string ref = traceOnce(1);
    ASSERT_FALSE(ref.empty());
    for (int threads : {2, 8})
        EXPECT_EQ(traceOnce(threads), ref)
            << "faulted trace diverged at " << threads << " threads";
}

} // namespace
} // namespace mtpu
