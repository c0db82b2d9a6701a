/**
 * @file
 * Two-tier execution benchmark (DESIGN.md §13): the functional fast
 * tier (direct-threaded interpreter + decoded-code and result-memo
 * caches, speculative fan-out with program-order commit) against the
 * cycle-level MTPU model on the identical block sequence.
 *
 * Both tiers execute the same pre-generated TOP8 mixed blocks chained
 * from the same genesis; the benchmark asserts that every functional
 * rung (1/2/8 threads) reaches the cycle tier's final state digest
 * bit-identically, reports wall-clock tx/s for every rung, and gates
 * on the functional tier being at least 10x faster than the cycle
 * tier. Writes the JSON to json-path (default BENCH_functional.json
 * in the current directory).
 *
 * Usage: bench_functional [blocks] [txs-per-block] [json-path]
 * Env:   MTPU_BENCH_BLOCKS / MTPU_BENCH_TXS override the positional
 *        defaults (positional arguments still win when given).
 *
 * Run from the repository root, the default path is the committed 8x128
 * baseline: give smaller rungs a json-path of their own, e.g.
 * `bench_functional 3 48 build/BENCH_functional.json`.
 *
 * Exit codes: 0 ok, 2 tier/thread divergence, 3 speedup gate missed.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/functional.hpp"
#include "evm/decode.hpp"
#include "evm/memo.hpp"
#include "fault/auditor.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace mtpu;
using Clock = std::chrono::steady_clock;

std::string
fmt(const char *spec, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

struct TierResult
{
    std::string label;
    int threads = 0;
    double seconds = 0.0;
    std::uint64_t txs = 0;
    std::uint64_t replayed = 0;
    std::uint64_t reexecuted = 0;
    U256 digest;

    double
    txPerSec() const
    {
        return seconds > 0 ? double(txs) / seconds : 0.0;
    }
};

/** Cycle tier: the audited cycle-level MTPU pipeline, chained. */
TierResult
runCycleTier(const std::vector<workload::BlockRun> &blocks,
             const evm::WorldState &genesis)
{
    TierResult out;
    out.label = "cycle";

    arch::MtpuConfig cfg;
    core::MtpuProcessor proc(cfg);
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.redundancyOpt = true;
    run.recovery.validateConflicts = true;

    evm::WorldState state = genesis;
    auto start = Clock::now();
    for (const workload::BlockRun &block : blocks) {
        core::AuditedRun res = proc.executeAudited(block, state, run);
        if (!res.ok() || !res.stats.finalState) {
            std::fprintf(stderr, "cycle tier: audit failed\n");
            std::exit(2);
        }
        state = *res.stats.finalState;
        out.txs += block.txs.size();
    }
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    out.digest = state.digest();
    return out;
}

/** Functional tier at one thread count, from a cold memo cache. */
TierResult
runFunctionalTier(const std::vector<workload::BlockRun> &blocks,
                  const evm::WorldState &genesis, int threads)
{
    TierResult out;
    out.label = "functional/" + std::to_string(threads);
    out.threads = threads;

    // Cold start per rung so the rungs are comparable: within a rung
    // the caches still see the workload's natural cross-block reuse.
    evm::MemoCache::global().clear();

    core::FunctionalPipeline pipe(genesis, threads);
    auto start = Clock::now();
    for (const workload::BlockRun &block : blocks) {
        core::FunctionalBlockResult res = pipe.executeBlock(block);
        out.txs += res.txCount;
        out.replayed += res.replayed;
        out.reexecuted += res.reexecuted;
    }
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    out.digest = pipe.state().digest();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mtpu::bench;

    auto env_default = [](const char *name, int fallback) {
        const char *v = std::getenv(name);
        return v && std::atoi(v) > 0 ? std::atoi(v) : fallback;
    };
    const int blocks = argc > 1 ? std::atoi(argv[1])
                                : env_default("MTPU_BENCH_BLOCKS", 8);
    const int txs = argc > 2 ? std::atoi(argv[2])
                             : env_default("MTPU_BENCH_TXS", 128);
    const std::string json_path =
        argc > 3 ? argv[3] : "BENCH_functional.json";
    constexpr double kSpeedupGate = 10.0;

    const bool metrics_on = std::getenv("MTPU_BENCH_METRICS") != nullptr;
    if (metrics_on)
        mtpu::obs::Registry::global().enable(true);

    banner("Two-tier execution: functional fast tier vs cycle model");
    std::printf("hardware threads: %u, %d blocks x %d txs\n\n",
                support::ThreadPool::hardwareThreads(), blocks, txs);

    // One block sequence for every tier and rung.
    workload::Generator gen(1, 512, 0);
    workload::BlockParams params;
    params.txCount = txs;
    params.depRatio = 0.3;
    params.erc20Share = -1.0; // natural TOP8 mix
    std::vector<workload::BlockRun> block_runs;
    block_runs.reserve(std::size_t(blocks));
    for (int b = 0; b < blocks; ++b)
        block_runs.push_back(gen.generateBlock(params));
    const evm::WorldState genesis = gen.genesis();

    TierResult cycle = runCycleTier(block_runs, genesis);
    std::vector<TierResult> rungs;
    for (int threads : {1, 2, 8})
        rungs.push_back(runFunctionalTier(block_runs, genesis, threads));

    bool identical = true;
    for (const TierResult &r : rungs)
        identical = identical && r.digest == cycle.digest;

    TierResult &best = rungs.front();
    for (TierResult &r : rungs)
        if (r.txPerSec() > best.txPerSec())
            best = r;
    const double speedup =
        cycle.txPerSec() > 0 ? best.txPerSec() / cycle.txPerSec() : 0.0;
    const bool gate_ok = speedup >= kSpeedupGate;

    Table table({"tier", "seconds", "tx/s", "replayed", "reexec",
                 "vs cycle"});
    table.row({cycle.label, fmt("%.3f", cycle.seconds),
               fmt("%.0f", cycle.txPerSec()), "-", "-", "1.00x"});
    for (const TierResult &r : rungs) {
        table.row({r.label, fmt("%.3f", r.seconds),
                   fmt("%.0f", r.txPerSec()),
                   std::to_string(r.replayed),
                   std::to_string(r.reexecuted),
                   fmt("%.2fx", cycle.txPerSec() > 0
                                    ? r.txPerSec() / cycle.txPerSec()
                                    : 0.0)});
    }
    table.print();
    std::printf("\nstate digests: %s\n",
                identical ? "bit-identical across tiers and threads"
                          : "DIVERGED");
    std::printf("speedup gate (>= %.0fx): %.2fx -> %s\n", kSpeedupGate,
                speedup, gate_ok ? "pass" : "FAIL");

    FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"functional\",\n"
                 "  \"blocks\": %d,\n  \"txsPerBlock\": %d,\n"
                 "  \"hardwareThreads\": %u,\n"
                 "  \"deterministic\": %s,\n"
                 "  \"speedupGate\": %.1f,\n"
                 "  \"speedupBest\": %.4f,\n"
                 "  \"gatePassed\": %s,\n"
                 "  \"finalDigest\": \"%s\",\n  \"tiers\": [\n",
                 blocks, txs, support::ThreadPool::hardwareThreads(),
                 identical ? "true" : "false", kSpeedupGate, speedup,
                 gate_ok ? "true" : "false",
                 cycle.digest.toHex().c_str());
    auto tier_row = [&](const TierResult &r, bool last) {
        std::fprintf(f,
                     "    {\"tier\": \"%s\", \"threads\": %d, "
                     "\"wallSeconds\": %.6f, \"txPerSec\": %.2f, "
                     "\"replayed\": %llu, \"reexecuted\": %llu}%s\n",
                     r.label.c_str(), r.threads, r.seconds, r.txPerSec(),
                     (unsigned long long)r.replayed,
                     (unsigned long long)r.reexecuted, last ? "" : ",");
    };
    tier_row(cycle, false);
    for (std::size_t i = 0; i < rungs.size(); ++i)
        tier_row(rungs[i], i + 1 == rungs.size());
    if (metrics_on)
        std::fprintf(f, "  ],\n  \"metrics\": %s\n}\n",
                     metricsJson().c_str());
    else
        std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());

    if (!identical)
        return 2;
    return gate_ok ? 0 : 3;
}
