/**
 * @file
 * Host-time gate of the functional fast tier (DESIGN.md §13): on the
 * same chained TOP8 blocks, the best functional rung (1, 2 or 8 host
 * threads, each on a fresh pipeline) must commit at least 10x the
 * transactions per second of the audited cycle tier. Both tiers must
 * reach the same final digest, so the gate never times a wrong run.
 *
 * The ratio divides by the cycle tier's time, so every verifier
 * speed-up shrinks the margin without any change to the fast tier.
 * This is a timing gate: ctest registers it (label `perf`, run serial)
 * only in optimized, unsanitized build trees.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/functional.hpp"
#include "core/mtpu.hpp"
#include "workload/workload.hpp"

namespace mtpu {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int kBlocks = 3;
constexpr int kTxs = 48;
constexpr double kSpeedupGate = 10.0;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

TEST(FunctionalSpeedup, FastTierIsTenTimesTheAuditedCycleTier)
{
    workload::Generator gen(1, 512, 0);
    workload::BlockParams params;
    params.txCount = kTxs;
    params.depRatio = 0.3;
    params.erc20Share = -1.0; // natural TOP8 mix
    std::vector<workload::BlockRun> blocks;
    for (int b = 0; b < kBlocks; ++b)
        blocks.push_back(gen.generateBlock(params));
    const evm::WorldState genesis = gen.genesis();
    const double txs = double(kBlocks * kTxs);

    // Cycle tier: the audited cycle-level pipeline, chained.
    core::MtpuProcessor proc{arch::MtpuConfig{}};
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.redundancyOpt = true;
    run.recovery.validateConflicts = true;
    evm::WorldState state = genesis;
    auto start = Clock::now();
    for (const workload::BlockRun &block : blocks) {
        core::AuditedRun res = proc.executeAudited(block, state, run);
        ASSERT_TRUE(res.ok());
        ASSERT_TRUE(res.stats.finalState);
        state = *res.stats.finalState;
    }
    const double cycle_tps = txs / secondsSince(start);
    const U256 cycle_digest = state.digest();

    double best_tps = 0.0;
    for (int threads : {1, 2, 8}) {
        core::FunctionalPipeline pipe(genesis, threads);
        start = Clock::now();
        for (const workload::BlockRun &block : blocks)
            pipe.executeBlock(block);
        best_tps = std::max(best_tps, txs / secondsSince(start));
        EXPECT_EQ(pipe.state().digest(), cycle_digest)
            << "functional/" << threads;
    }

    const double speedup = best_tps / cycle_tps;
    std::printf("cycle %.0f tx/s, best functional %.0f tx/s: %.2fx "
                "(gate >= %.0fx)\n",
                cycle_tps, best_tps, speedup, kSpeedupGate);
    EXPECT_GE(speedup, kSpeedupGate);
}

} // namespace
} // namespace mtpu
