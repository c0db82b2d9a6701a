/**
 * @file
 * Commutativity-aware conflict taming benchmark (DESIGN.md §14): the
 * hot-ERC20-transfer and NFT-mint-storm packs — every transaction in a
 * block collides on one storage slot through a pure checked add/sub
 * chain — executed with exact-match validation and with commutative
 * range-validated delta commits, on both execution backends:
 *
 *  - the functional fast tier (FunctionalPipeline, 2 host threads:
 *    speculative fan-out + program-order commit), measuring phase-2
 *    re-executions and wall-clock tx/s;
 *  - the audited cycle-level engine (threads 2, recovery validation
 *    on), measuring conflict-abort rate and makespan cycles, with the
 *    serializability Auditor gating every run.
 *
 * Gates: every variant's final state digest must be bit-identical to
 * the sequential reference (exit 2 on divergence, audit failures
 * included), and on the hot-ERC20 pack commutative validation must cut
 * phase-2 re-executions by at least 5x (exit 3). Writes
 * BENCH_conflict.json.
 *
 * Usage: bench_conflict [blocks] [txs-per-block] [json-path]
 * Env:   MTPU_BENCH_BLOCKS / MTPU_BENCH_TXS override the defaults.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/functional.hpp"
#include "evm/memo.hpp"
#include "fault/auditor.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace mtpu;
using Clock = std::chrono::steady_clock;

constexpr int kThreads = 2; ///< threads 1 has no speculation to tame
constexpr double kReexecGate = 5.0;

std::string
fmt(const char *spec, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), spec, v);
    return buf;
}

/** One pack x variant measurement across both backends. */
struct VariantResult
{
    std::string variant; ///< "exact" | "commutative"

    // functional tier (threads 2, cold memo)
    std::uint64_t txs = 0;
    std::uint64_t replayed = 0;
    std::uint64_t reexecuted = 0;
    std::uint64_t reexecValidationMiss = 0;
    std::uint64_t reexecBoundsMiss = 0;
    double seconds = 0.0;
    U256 digest;

    // cycle-level engine (threads 2, validated + audited)
    std::uint64_t makespan = 0;
    std::uint64_t conflictAborts = 0;
    std::uint64_t engineCommitted = 0;
    std::uint64_t commutativeDropped = 0;
    bool auditOk = true;

    double
    txPerSec() const
    {
        return seconds > 0 ? double(txs) / seconds : 0.0;
    }

    double
    abortRate() const
    {
        return engineCommitted
                   ? double(conflictAborts) / double(engineCommitted)
                   : 0.0;
    }
};

/** Sequential reference digest: program order from genesis, chained. */
U256
referenceDigest(const std::vector<workload::BlockRun> &blocks,
                const evm::WorldState &genesis)
{
    core::FunctionalPipeline pipe(genesis, /*threads=*/1);
    for (const workload::BlockRun &block : blocks)
        pipe.executeBlock(block);
    return pipe.state().digest();
}

VariantResult
runVariant(const std::vector<workload::BlockRun> &blocks,
           const evm::WorldState &genesis, bool commutative)
{
    VariantResult out;
    out.variant = commutative ? "commutative" : "exact";

    // Functional tier, cold memo per variant so the rungs compare
    // speculation quality, not cache history.
    evm::MemoCache::global().clear();
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

    // Cycle-level engine: each pack block was consensus-executed from
    // genesis, so each is engine-run from genesis and audited there.
    evm::MemoCache::global().clear();
    arch::MtpuConfig cfg;
    cfg.threads = kThreads;
    cfg.commutative = commutative;
    core::MtpuProcessor proc(cfg);
    core::RunOptions run;
    run.scheme = core::Scheme::SpatioTemporal;
    run.recovery.validateConflicts = true;
    for (const workload::BlockRun &block : blocks) {
        core::AuditedRun res = proc.executeAudited(block, genesis, run);
        out.makespan += res.stats.makespan;
        out.conflictAborts += res.stats.conflictAborts;
        out.engineCommitted += res.stats.txCount;
        out.commutativeDropped += res.stats.commutativeDropped;
        out.auditOk = out.auditOk && res.ok();
    }
    return out;
}

struct PackResult
{
    std::string pack;
    VariantResult exact;
    VariantResult comm;

    /** Re-execution reduction, exact / commutative (inf -> count). */
    double
    reduction() const
    {
        if (comm.reexecuted == 0)
            return double(exact.reexecuted == 0 ? 1 : exact.reexecuted);
        return double(exact.reexecuted) / double(comm.reexecuted);
    }
};

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
                                : env_default("MTPU_BENCH_BLOCKS", 4);
    const int txs = argc > 2 ? std::atoi(argv[2])
                             : env_default("MTPU_BENCH_TXS", 64);
    const std::string json_path =
        argc > 3 ? argv[3] : "BENCH_conflict.json";

    banner("Commutativity-aware conflict taming: delta commits + "
           "DAG edge elision");
    std::printf("%d blocks x %d txs per pack, %d host threads\n\n",
                blocks, txs, kThreads);

    // One generator per pack keeps the tx sequences identical across
    // the exact and commutative variants: the packs ship exact DAGs
    // and the engine/pipeline decide at run time.
    std::vector<PackResult> packs;
    for (const char *pack_name : {"hot-erc20", "mint-storm"}) {
        workload::Generator gen(1, 512, 0);
        std::vector<workload::BlockRun> block_runs;
        block_runs.reserve(std::size_t(blocks));
        for (int b = 0; b < blocks; ++b) {
            block_runs.push_back(std::string(pack_name) == "hot-erc20"
                                     ? gen.hotTokenBlock(txs)
                                     : gen.mintStormBlock(txs));
        }
        const evm::WorldState genesis = gen.genesis();
        const U256 ref = referenceDigest(block_runs, genesis);

        PackResult pr;
        pr.pack = pack_name;
        pr.exact = runVariant(block_runs, genesis, false);
        pr.comm = runVariant(block_runs, genesis, true);
        pr.exact.auditOk =
            pr.exact.auditOk && pr.exact.digest == ref;
        pr.comm.auditOk = pr.comm.auditOk && pr.comm.digest == ref;
        packs.push_back(std::move(pr));
    }

    Table table({"pack", "variant", "reexec", "bounds-miss", "tx/s",
                 "abort-rate", "makespan", "elided", "audit"});
    bool digests_ok = true;
    for (const PackResult &pr : packs) {
        for (const VariantResult *v : {&pr.exact, &pr.comm}) {
            table.row({pr.pack, v->variant,
                       std::to_string(v->reexecuted),
                       std::to_string(v->reexecBoundsMiss),
                       fmt("%.0f", v->txPerSec()),
                       fmt("%.3f", v->abortRate()),
                       std::to_string(v->makespan),
                       std::to_string(v->commutativeDropped),
                       v->auditOk ? "pass" : "FAIL"});
            digests_ok = digests_ok && v->auditOk;
        }
    }
    table.print();

    const double hot_reduction = packs.front().reduction();
    const bool gate_ok = hot_reduction >= kReexecGate;
    std::printf("\nstate digests + audits: %s\n",
                digests_ok ? "bit-identical, serializable" : "DIVERGED");
    std::printf("hot-erc20 re-execution reduction (>= %.0fx): "
                "%.2fx -> %s\n",
                kReexecGate, hot_reduction, gate_ok ? "pass" : "FAIL");

    FILE *f = std::fopen(json_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"conflict\",\n"
                 "  \"blocks\": %d,\n  \"txsPerBlock\": %d,\n"
                 "  \"hostThreads\": %d,\n"
                 "  \"digestsOk\": %s,\n"
                 "  \"reexecGate\": %.1f,\n"
                 "  \"hotReexecReduction\": %.4f,\n"
                 "  \"gatePassed\": %s,\n  \"packs\": [\n",
                 blocks, txs, kThreads, digests_ok ? "true" : "false",
                 kReexecGate, hot_reduction, gate_ok ? "true" : "false");
    for (std::size_t p = 0; p < packs.size(); ++p) {
        const PackResult &pr = packs[p];
        std::fprintf(f, "    {\"pack\": \"%s\", \"variants\": [\n",
                     pr.pack.c_str());
        for (const VariantResult *v : {&pr.exact, &pr.comm}) {
            std::fprintf(
                f,
                "      {\"variant\": \"%s\", \"txs\": %llu, "
                "\"replayed\": %llu, \"reexecuted\": %llu, "
                "\"reexecValidationMiss\": %llu, "
                "\"reexecBoundsMiss\": %llu, "
                "\"txPerSec\": %.2f, \"abortRate\": %.4f, "
                "\"makespanCycles\": %llu, "
                "\"commutativeDropped\": %llu, "
                "\"auditOk\": %s, \"digest\": \"%s\"}%s\n",
                v->variant.c_str(), (unsigned long long)v->txs,
                (unsigned long long)v->replayed,
                (unsigned long long)v->reexecuted,
                (unsigned long long)v->reexecValidationMiss,
                (unsigned long long)v->reexecBoundsMiss, v->txPerSec(),
                v->abortRate(), (unsigned long long)v->makespan,
                (unsigned long long)v->commutativeDropped,
                v->auditOk ? "true" : "false",
                v->digest.toHex().c_str(), v == &pr.comm ? "" : ",");
        }
        std::fprintf(f, "    ], \"reexecReduction\": %.4f}%s\n",
                     pr.reduction(), p + 1 == packs.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());

    if (!digests_ok)
        return 2;
    return gate_ok ? 0 : 3;
}
