/**
 * @file
 * Golden-trace regression (DESIGN.md §10): the deterministic-domain
 * trace of a fixed-seed block is a pure function of the block and the
 * configuration, so it must be byte-identical across repeated runs,
 * across host thread counts (1/2/8), and against the committed golden
 * file. Regenerate the golden after an intentional schedule or timing
 * change with:
 *
 *     MTPU_UPDATE_GOLDEN=1 ./test_obs --gtest_filter='GoldenTrace.*'
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/mtpu.hpp"
#include "fault/injector.hpp"
#include "obs/tracer.hpp"
#include "workload/workload.hpp"
#include "test_util.hpp"

#ifndef MTPU_OBS_TEST_DATA_DIR
#define MTPU_OBS_TEST_DATA_DIR "tests/obs/data"
#endif

namespace mtpu {
namespace {

workload::BlockParams
mixedParams(int txs, double dep)
{
    workload::BlockParams p;
    p.txCount = txs;
    p.depRatio = dep;
    p.erc20Share = -1.0; // natural TOP8 mix
    return p;
}

/**
 * Recovered run options with functional state from @p genesis.
 * redundancyOpt keeps MtpuConfig's default context reuse and DB-line
 * retention, the configuration the golden was pinned with.
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

/** Trace the fixed-seed block on a fresh processor at @p threads. */
obs::Tracer
traceFixedBlock(int threads)
{
    workload::Generator gen(7, 128, /*threads=*/1);
    workload::BlockRun block = gen.generateBlock(mixedParams(16, 0.4));

    arch::MtpuConfig cfg;
    cfg.threads = threads;
    core::MtpuProcessor proc(cfg);

    obs::Tracer tracer;
    proc.setTracer(&tracer);

    sched::EngineStats stats =
        proc.execute(block, functionalRun(gen.genesis()));
    EXPECT_FALSE(stats.watchdogFired);
    EXPECT_EQ(tracer.dropped(), 0u);
    return tracer;
}

std::string
goldenPath()
{
    return std::string(MTPU_OBS_TEST_DATA_DIR) + "/golden_trace.txt";
}

TEST(GoldenTrace, ByteIdenticalAcrossRunsAndHostThreadCounts)
{
    obs::Tracer ref = traceFixedBlock(1);
    const std::string canonical = ref.canonical();
    ASSERT_FALSE(canonical.empty());

    // Same command, fresh processor: byte-identical.
    EXPECT_EQ(traceFixedBlock(1).canonical(), canonical);

    // Any host thread count: byte-identical, down to the Chrome export.
    for (int threads : {2, 8}) {
        obs::Tracer got = traceFixedBlock(threads);
        EXPECT_EQ(got.canonical(), canonical)
            << "canonical trace diverged at " << threads << " threads";
        EXPECT_EQ(got.chromeJson(), ref.chromeJson())
            << "chrome export diverged at " << threads << " threads";
    }

    EXPECT_TRUE(testobs::validJson(ref.chromeJson()));
}

TEST(GoldenTrace, MatchesCommittedGolden)
{
    const std::string canonical = traceFixedBlock(1).canonical();

    if (std::getenv("MTPU_UPDATE_GOLDEN") != nullptr) {
        std::ofstream out(goldenPath(), std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << canonical;
        return;
    }

    std::ifstream in(goldenPath(), std::ios::binary);
    ASSERT_TRUE(in.good())
        << "missing " << goldenPath()
        << " (regenerate with MTPU_UPDATE_GOLDEN=1)";
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(canonical, buf.str())
        << "trace diverged from the committed golden; if the schedule "
           "or timing model changed intentionally, regenerate with "
           "MTPU_UPDATE_GOLDEN=1";
}

TEST(GoldenTrace, FaultedTraceIdenticalAcrossHostThreadCounts)
{
    // Degrade the DAG and inject aborts plus one PU kill; the recovery
    // path must trace identically at every host thread count too.
    workload::Generator gen(21, 128, /*threads=*/1);
    workload::BlockRun block = gen.generateBlock(mixedParams(24, 0.4));

    fault::FaultInjector inj(42);
    fault::InjectionParams params;
    params.dropEdgeRate = 0.5;
    params.abortRate = 0.15;
    params.numPus = 4;
    params.puFaultCount = 1;
    fault::FaultPlan plan = inj.plan(block, params);
    workload::BlockRun degraded = fault::FaultInjector::degrade(block, plan);

    auto traceOnce = [&](int threads) {
        arch::MtpuConfig cfg;
        cfg.threads = threads;
        core::MtpuProcessor proc(cfg);
        obs::Tracer tracer;
        proc.setTracer(&tracer);
        core::RunOptions run = functionalRun(gen.genesis());
        run.recovery.plan = &plan;
        proc.execute(degraded, run);
        EXPECT_EQ(tracer.dropped(), 0u);
        return tracer.canonical();
    };

    const std::string ref = traceOnce(1);
    ASSERT_FALSE(ref.empty());
    // The recovery machinery must actually have fired for this block.
    EXPECT_NE(ref.find("tx_injected_abort"), std::string::npos);
    for (int threads : {2, 8})
        EXPECT_EQ(traceOnce(threads), ref)
            << "faulted trace diverged at " << threads << " threads";
}

} // namespace
} // namespace mtpu
