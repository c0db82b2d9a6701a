/**
 * @file
 * Workload-pack characterization bench (DESIGN.md §15): every pack —
 * hot-token, mint-storm, flash-loan, airdrop, oracle-liquidate,
 * adversarial — measured on all four execution paths:
 *
 *  - functional fast tier, cold memo, exact validation;
 *  - functional fast tier, cold memo, commutative delta commits
 *    (phase-2 re-execution causes split into validation vs bounds);
 *  - functional fast tier against the warm memo left by the cold run
 *    (memo hit ratio, replay throughput);
 *  - audited cycle-level engine, exact and commutative (scheduling
 *    efficiency = busy/(makespan x PUs), conflict-abort rate, elided
 *    DAG edges, DB-cache hit ratio from the obs registry).
 *
 * Gates: every variant's digest must equal the sequential reference
 * and every engine run must pass the serializability audit (exit 2
 * otherwise). Numbers are recorded, not gated — the packs exist to
 * show where scheduling degrades, so regressions land in the JSON.
 * Writes the JSON to json-path (default BENCH_packs.json in the
 * current directory).
 *
 * Usage: bench_packs [blocks] [txs-per-block] [json-path]
 * Env:   MTPU_BENCH_BLOCKS / MTPU_BENCH_TXS override the defaults.
 *
 * Run from the repository root, the default path is the committed
 * baseline: give other rungs a json-path of their own, e.g.
 * `bench_packs 2 32 build/BENCH_packs.json`.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/functional.hpp"
#include "evm/memo.hpp"
#include "obs/metrics.hpp"
#include "workload/packs.hpp"

namespace {

using namespace mtpu;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 2;
constexpr int kNumPus = 4;

std::string
fmt(const char *spec, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

/** One functional-tier measurement. */
struct FuncResult
{
    std::string variant; ///< "exact" | "commutative" | "warm-memo"
    std::uint64_t txs = 0;
    std::uint64_t replayed = 0;
    std::uint64_t reexecuted = 0;
    std::uint64_t reexecValidationMiss = 0;
    std::uint64_t reexecBoundsMiss = 0;
    std::uint64_t memoHits = 0;
    std::uint64_t memoMisses = 0;
    double seconds = 0.0;
    U256 digest;

    double
    txPerSec() const
    {
        return seconds > 0 ? double(txs) / seconds : 0.0;
    }

    double
    memoHitRatio() const
    {
        std::uint64_t total = memoHits + memoMisses;
        return total ? double(memoHits) / double(total) : 0.0;
    }
};

/** One audited cycle-engine measurement. */
struct CycleResult
{
    std::string variant; ///< "exact" | "commutative"
    std::uint64_t makespan = 0;
    std::uint64_t conflictAborts = 0;
    std::uint64_t committed = 0;
    std::uint64_t commutativeDropped = 0;
    std::uint64_t dbHits = 0;
    std::uint64_t dbInstalled = 0;
    double utilization = 0.0; ///< averaged over blocks
    bool auditOk = true;
    U256 digest;

    double
    abortRate() const
    {
        return committed ? double(conflictAborts) / double(committed)
                         : 0.0;
    }

    double
    dbHitRatio() const
    {
        std::uint64_t total = dbHits + dbInstalled;
        return total ? double(dbHits) / double(total) : 0.0;
    }
};

struct PackResult
{
    std::string pack;
    std::vector<FuncResult> func;
    std::vector<CycleResult> cycle;
    bool ok = true; ///< all digests matched + audits passed
};

FuncResult
runFunctional(const std::vector<workload::BlockRun> &blocks,
              const evm::WorldState &genesis, const char *variant,
              bool commutative, bool cold)
{
    FuncResult out;
    out.variant = variant;
    if (cold)
        evm::MemoCache::global().clear();

    obs::Snapshot before = obs::Registry::global().snapshot();
    core::FunctionalPipeline pipe(genesis, kThreads);
    pipe.setCommutative(commutative);
    auto start = Clock::now();
    for (const workload::BlockRun &block : blocks) {
        core::FunctionalBlockResult res = pipe.executeBlock(block);
        out.txs += res.txCount;
        out.replayed += res.replayed;
        out.reexecuted += res.reexecuted;
        out.reexecValidationMiss += res.reexecValidationMiss;
        out.reexecBoundsMiss += res.reexecBoundsMiss;
    }
    out.seconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    out.digest = pipe.state().digest();

    obs::Snapshot after = obs::Registry::global().snapshot();
    out.memoHits =
        after.counter("evm.memo.hit") - before.counter("evm.memo.hit");
    out.memoMisses = after.counter("evm.memo.miss")
                   - before.counter("evm.memo.miss");
    return out;
}

CycleResult
runCycle(const std::vector<workload::BlockRun> &blocks,
         const evm::WorldState &genesis, bool commutative)
{
    CycleResult out;
    out.variant = commutative ? "commutative" : "exact";
    evm::MemoCache::global().clear();

    arch::MtpuConfig cfg;
    cfg.numPus = kNumPus;
    cfg.threads = kThreads;
    cfg.commutative = commutative;
    core::MtpuProcessor proc(cfg);
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.recovery.validateConflicts = true;

    obs::Snapshot before = obs::Registry::global().snapshot();
    double util_sum = 0.0;
    evm::WorldState final_state = genesis;
    for (const workload::BlockRun &block : blocks) {
        // Pack blocks carry consensus ground truth relative to
        // genesis, so each block engine-runs from genesis.
        core::AuditedRun res = proc.executeAudited(block, genesis, run);
        out.makespan += res.stats.makespan;
        out.conflictAborts += res.stats.conflictAborts;
        out.committed += res.stats.txCount;
        out.commutativeDropped += res.stats.commutativeDropped;
        util_sum += res.stats.utilization();
        out.auditOk = out.auditOk && res.ok();
        if (res.stats.finalState)
            final_state = *res.stats.finalState;
    }
    out.utilization =
        blocks.empty() ? 0.0 : util_sum / double(blocks.size());
    out.digest = final_state.digest();

    obs::Snapshot after = obs::Registry::global().snapshot();
    out.dbHits = after.counter("db.line_hits")
               - before.counter("db.line_hits");
    out.dbInstalled = after.counter("db.lines_installed")
                    - before.counter("db.lines_installed");
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
                                : env_default("MTPU_BENCH_BLOCKS", 3);
    const int txs = argc > 2 ? std::atoi(argv[2])
                             : env_default("MTPU_BENCH_TXS", 48);
    const std::string json_path =
        argc > 3 ? argv[3] : "BENCH_packs.json";

    // The memo-hit / DB-hit columns come from the metrics registry.
    mtpu::obs::Registry::global().enable(true);

    banner("Adversarial & DeFi-composability workload packs");
    std::printf("%d blocks x %d txs per pack, %d host threads, "
                "%d PUs\n\n",
                blocks, txs, kThreads, kNumPus);

    std::vector<PackResult> results;
    bool all_ok = true;
    for (workload::Pack pack : workload::allPacks()) {
        workload::Generator gen(1, 512, 0);
        workload::PackParams params;
        params.txCount = txs;
        std::vector<workload::BlockRun> block_runs;
        block_runs.reserve(std::size_t(blocks));
        for (int b = 0; b < blocks; ++b)
            block_runs.push_back(
                workload::buildPackBlock(gen, pack, params));
        const evm::WorldState genesis = gen.genesis();

        // Sequential reference. The engine runs each block from
        // genesis, so the digest gate compares per-block final states
        // only for single-block runs; the chained functional digest is
        // the cross-variant gate.
        evm::MemoCache::global().clear();
        core::FunctionalPipeline ref(genesis, 1);
        for (const workload::BlockRun &block : block_runs)
            ref.executeBlock(block);
        const U256 want = ref.state().digest();

        PackResult pr;
        pr.pack = workload::packName(pack);
        pr.func.push_back(runFunctional(block_runs, genesis, "exact",
                                        false, /*cold=*/true));
        pr.func.push_back(runFunctional(block_runs, genesis,
                                        "warm-memo", false,
                                        /*cold=*/false));
        pr.func.push_back(runFunctional(block_runs, genesis,
                                        "commutative", true,
                                        /*cold=*/true));
        for (const FuncResult &fr : pr.func)
            pr.ok = pr.ok && fr.digest == want;

        // Cycle engine digest gate: single final block from genesis
        // must match the reference for that block alone.
        evm::MemoCache::global().clear();
        core::FunctionalPipeline last_ref(genesis, 1);
        last_ref.executeBlock(block_runs.back());
        const U256 last_want = last_ref.state().digest();
        pr.cycle.push_back(runCycle(block_runs, genesis, false));
        pr.cycle.push_back(runCycle(block_runs, genesis, true));
        for (const CycleResult &cr : pr.cycle)
            pr.ok = pr.ok && cr.auditOk && cr.digest == last_want;

        all_ok = all_ok && pr.ok;
        results.push_back(std::move(pr));
    }

    Table table({"pack", "variant", "tx/s", "reexec", "v-miss",
                 "b-miss", "memo-hit", "sched-eff", "abort-rate",
                 "elided", "db-hit", "gate"});
    for (const PackResult &pr : results) {
        for (const FuncResult &fr : pr.func) {
            table.row({pr.pack, fr.variant, fmt("%.0f", fr.txPerSec()),
                       std::to_string(fr.reexecuted),
                       std::to_string(fr.reexecValidationMiss),
                       std::to_string(fr.reexecBoundsMiss),
                       fmt("%.3f", fr.memoHitRatio()), "-", "-", "-",
                       "-", pr.ok ? "pass" : "FAIL"});
        }
        for (const CycleResult &cr : pr.cycle) {
            table.row({pr.pack, "cycle-" + cr.variant, "-", "-", "-",
                       "-", "-", fmt("%.3f", cr.utilization),
                       fmt("%.3f", cr.abortRate()),
                       std::to_string(cr.commutativeDropped),
                       fmt("%.3f", cr.dbHitRatio()),
                       cr.auditOk ? "pass" : "FAIL"});
        }
    }
    table.print();
    std::printf("\nstate digests + audits: %s\n",
                all_ok ? "bit-identical, serializable" : "DIVERGED");

    FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"packs\",\n"
                 "  \"blocks\": %d,\n  \"txsPerBlock\": %d,\n"
                 "  \"hostThreads\": %d,\n  \"numPus\": %d,\n"
                 "  \"gatePassed\": %s,\n  \"packs\": [\n",
                 blocks, txs, kThreads, kNumPus,
                 all_ok ? "true" : "false");
    for (std::size_t p = 0; p < results.size(); ++p) {
        const PackResult &pr = results[p];
        std::fprintf(f,
                     "    {\"pack\": \"%s\", \"ok\": %s,\n"
                     "     \"functional\": [\n",
                     pr.pack.c_str(), pr.ok ? "true" : "false");
        for (std::size_t i = 0; i < pr.func.size(); ++i) {
            const FuncResult &fr = pr.func[i];
            std::fprintf(
                f,
                "      {\"variant\": \"%s\", \"txs\": %llu, "
                "\"txPerSec\": %.2f, \"replayed\": %llu, "
                "\"reexecuted\": %llu, "
                "\"reexecValidationMiss\": %llu, "
                "\"reexecBoundsMiss\": %llu, "
                "\"memoHitRatio\": %.4f}%s\n",
                fr.variant.c_str(), (unsigned long long)fr.txs,
                fr.txPerSec(), (unsigned long long)fr.replayed,
                (unsigned long long)fr.reexecuted,
                (unsigned long long)fr.reexecValidationMiss,
                (unsigned long long)fr.reexecBoundsMiss,
                fr.memoHitRatio(),
                i + 1 == pr.func.size() ? "" : ",");
        }
        std::fprintf(f, "     ],\n     \"cycle\": [\n");
        for (std::size_t i = 0; i < pr.cycle.size(); ++i) {
            const CycleResult &cr = pr.cycle[i];
            std::fprintf(
                f,
                "      {\"variant\": \"%s\", "
                "\"schedulingEfficiency\": %.4f, "
                "\"makespanCycles\": %llu, "
                "\"conflictAborts\": %llu, \"abortRate\": %.4f, "
                "\"commutativeDropped\": %llu, "
                "\"dbCacheHitRatio\": %.4f, \"auditOk\": %s}%s\n",
                cr.variant.c_str(), cr.utilization,
                (unsigned long long)cr.makespan,
                (unsigned long long)cr.conflictAborts, cr.abortRate(),
                (unsigned long long)cr.commutativeDropped,
                cr.dbHitRatio(), cr.auditOk ? "true" : "false",
                i + 1 == pr.cycle.size() ? "" : ",");
        }
        std::fprintf(f, "     ]}%s\n",
                     p + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());

    return all_ok ? 0 : 2;
}
