/**
 * @file
 * The cross-backend stress matrix (DESIGN.md §15): every workload pack
 * x every fault configuration x all four execution paths —
 *
 *   1. cycle-exact engine (audited, commit-time conflict validation),
 *   2. cycle engine with commutative delta commits,
 *   3. functional pipeline (speculative fan-out, cold memo),
 *   4. functional pipeline against a warm memo cache,
 *
 * gating on bit-identical state digests against the sequential
 * reference, clean serializability audits, and receipt equality
 * against the consensus-stage ground truth. The faulted cycle runs
 * execute a degraded block (dropped DAG edges, forced aborts, PU
 * kills) and must still converge to the same digest.
 *
 * Scale via MTPU_STRESS_TXS (default 20 txs per block).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/functional.hpp"
#include "core/mtpu.hpp"
#include "evm/commutative.hpp"
#include "evm/memo.hpp"
#include "fault/auditor.hpp"
#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "workload/packs.hpp"

namespace mtpu {
namespace {

constexpr int kNumPus = 4;
constexpr int kThreads = 2;

int
stressTxs()
{
    const char *v = std::getenv("MTPU_STRESS_TXS");
    int n = v ? std::atoi(v) : 0;
    return n > 0 ? n : 20;
}

/** One axis of the fault matrix. */
struct FaultConfig
{
    const char *name;
    fault::InjectionParams params;
    bool any = true; ///< false: clean run, no plan attached

    /**
     * Injected mid-transaction aborts change the final state (the
     * victim's call effects roll back for good), so those configs
     * gate on cross-backend bit-identity + clean audits instead of
     * equality with the fault-free reference.
     */
    bool
    semantic() const
    {
        return params.abortRate > 0.0;
    }
};

std::vector<FaultConfig>
faultConfigs()
{
    std::vector<FaultConfig> configs;
    {
        FaultConfig c{"clean", {}, false};
        configs.push_back(c);
    }
    {
        FaultConfig c{"drop-edges", {}, true};
        c.params.dropEdgeRate = 0.5;
        c.params.numPus = kNumPus;
        configs.push_back(c);
    }
    {
        FaultConfig c{"aborts", {}, true};
        c.params.abortRate = 0.3;
        c.params.numPus = kNumPus;
        configs.push_back(c);
    }
    {
        FaultConfig c{"pu-kill", {}, true};
        c.params.puFaultCount = 1;
        c.params.killPu = true;
        c.params.numPus = kNumPus;
        configs.push_back(c);
    }
    {
        FaultConfig c{"combined", {}, true};
        c.params.dropEdgeRate = 0.3;
        c.params.abortRate = 0.2;
        c.params.puFaultCount = 1;
        c.params.killPu = true;
        c.params.numPus = kNumPus;
        configs.push_back(c);
    }
    return configs;
}

/** Shared contract universe: deploying is the expensive part. */
workload::Generator &
sharedGen()
{
    static workload::Generator gen(2024, 128, kThreads);
    return gen;
}

/** Audited engine run; returns the final digest (asserts audit/state). */
U256
runCycleBackend(const workload::BlockRun &block,
                const evm::WorldState &genesis,
                const fault::FaultPlan *plan, bool commutative,
                const std::string &label)
{
    arch::MtpuConfig cfg;
    cfg.numPus = kNumPus;
    cfg.threads = kThreads;
    cfg.commutative = commutative;
    core::MtpuProcessor proc(cfg);

    core::RunOptions opt;
    opt.recovery.validateConflicts = true;
    opt.recovery.plan = plan && !plan->empty() ? plan : nullptr;

    core::AuditedRun res = proc.executeAudited(block, genesis, opt);
    EXPECT_TRUE(res.audit.ok()) << label << ": " << res.audit.message;
    EXPECT_FALSE(res.stats.watchdogFired) << label;
    if (!res.stats.finalState) {
        ADD_FAILURE() << label << ": no final state";
        return U256();
    }
    return res.stats.finalState->digest();
}

class PackMatrix : public ::testing::TestWithParam<workload::Pack>
{
};

TEST_P(PackMatrix, AllBackendsBitIdenticalUnderFaults)
{
    workload::Generator &gen = sharedGen();
    const evm::WorldState &genesis = gen.genesis();

    workload::PackParams params;
    params.txCount = stressTxs();
    workload::BlockRun block =
        workload::buildPackBlock(gen, GetParam(), params);
    ASSERT_EQ(block.txs.size(), std::size_t(params.txCount));

    // Sequential reference: functional pipeline, one thread, from
    // genesis. Its receipts must equal the consensus-stage ground
    // truth shipped in the block.
    evm::MemoCache::global().clear();
    core::FunctionalPipeline ref(genesis, 1);
    core::FunctionalBlockResult ref_res = ref.executeBlock(block);
    const U256 want = ref.state().digest();
    ASSERT_EQ(ref_res.receipts.size(), block.txs.size());
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        EXPECT_EQ(ref_res.receipts[i].toRlp(),
                  block.txs[i].receipt.toRlp())
            << "reference receipt " << i;
    }

    const std::string pack_name = workload::packName(GetParam());

    // Functional tier: cold-memo exact, cold-memo commutative, then a
    // warm-memo replay over the cache the cold runs just filled. The
    // fault matrix below is a cycle-engine concern — the functional
    // tier has no DAG or PUs to degrade.
    for (bool commutative : {false, true}) {
        evm::MemoCache::global().clear();
        core::FunctionalPipeline pipe(genesis, kThreads);
        pipe.setCommutative(commutative);
        core::FunctionalBlockResult res = pipe.executeBlock(block);
        EXPECT_EQ(pipe.state().digest(), want)
            << pack_name << " / functional cold commutative="
            << commutative;
        ASSERT_EQ(res.receipts.size(), block.txs.size());
        for (std::size_t i = 0; i < block.txs.size(); ++i) {
            EXPECT_EQ(res.receipts[i].toRlp(),
                      block.txs[i].receipt.toRlp())
                << pack_name << " / functional receipt " << i;
        }
    }
    core::FunctionalPipeline warm(genesis, kThreads);
    core::FunctionalBlockResult warm_res = warm.executeBlock(block);
    EXPECT_EQ(warm.state().digest(), want)
        << pack_name << " / functional warm-memo";
    ASSERT_EQ(warm_res.receipts.size(), block.txs.size());
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        EXPECT_EQ(warm_res.receipts[i].toRlp(),
                  block.txs[i].receipt.toRlp())
            << pack_name << " / warm receipt " << i;
    }

    // Cycle engine x fault matrix: both validation variants execute
    // the SAME degraded block under the SAME plan, so their digests
    // must agree bit-for-bit even when injected aborts legitimately
    // move the final state away from the fault-free reference.
    std::uint64_t fault_seed = 7;
    for (const FaultConfig &fc : faultConfigs()) {
        std::string label = pack_name + " / " + fc.name;
        fault::FaultPlan plan;
        workload::BlockRun degraded;
        const workload::BlockRun *to_run = &block;
        if (fc.any) {
            fault::FaultInjector inj(fault_seed++);
            plan = inj.plan(block, fc.params);
            degraded = fault::FaultInjector::degrade(block, plan);
            to_run = &degraded;
        }
        U256 exact = runCycleBackend(*to_run, genesis, &plan, false,
                                     label + " / cycle-exact");
        U256 comm = runCycleBackend(*to_run, genesis, &plan, true,
                                    label + " / cycle-commutative");
        EXPECT_EQ(exact, comm) << label
                               << ": exact and commutative validation "
                                  "diverged under one fault plan";
        if (!fc.semantic()) {
            EXPECT_EQ(exact, want) << label << " / cycle-exact";
            EXPECT_EQ(comm, want) << label << " / cycle-commutative";
        }
    }
}

/**
 * The pack block's consensus stage rerun without a pool, from scratch:
 * what a verifier without worker threads derives from the same txs.
 */
workload::BlockRun
serialConsensus(const workload::BlockRun &block,
                const evm::WorldState &genesis)
{
    workload::BlockRun out;
    out.header = block.header;
    for (const workload::TxRecord &rec : block.txs) {
        workload::TxRecord fresh;
        fresh.tx = rec.tx;
        fresh.contract = rec.contract;
        fresh.function = rec.function;
        fresh.isErc20 = rec.isErc20;
        out.txs.push_back(std::move(fresh));
    }
    workload::runConsensusStage(out, genesis, nullptr);
    return out;
}

/** fault.audit_replayed_txs so far (0 while the registry is off). */
std::uint64_t
replayedSoFar()
{
    return obs::Registry::global().snapshot().counter(
        "fault.audit_replayed_txs");
}

/**
 * The replay-free audit against the full replay, on every pack x fault
 * x cycle backend, for the block's pooled consensus stage and a serial
 * rerun of it: the carried digest is the fast tier's canonical digest,
 * and both audits give the same verdict, digests and message. Clean
 * runs of plans without aborts must take the replay-free path.
 */
TEST_P(PackMatrix, ReplayFreeAuditAgreesWithFullReplay)
{
    workload::Generator &gen = sharedGen();
    const evm::WorldState &genesis = gen.genesis();
    workload::PackParams params;
    params.txCount = stressTxs();
    const workload::BlockRun pooled =
        workload::buildPackBlock(gen, GetParam(), params);
    const workload::BlockRun serial = serialConsensus(pooled, genesis);
    ASSERT_TRUE(pooled.consensusDigest.has_value());
    ASSERT_TRUE(serial.consensusDigest.has_value());
    EXPECT_EQ(serial.consensusDigest->pre, genesis.digest());
    EXPECT_EQ(pooled.consensusDigest->pre, genesis.digest());
    EXPECT_EQ(serial.consensusDigest->post, pooled.consensusDigest->post);
    EXPECT_EQ(pooled.consensusDigest->post,
              fault::Auditor(genesis, pooled).canonicalDigest());

    obs::Registry &reg = obs::Registry::global();
    const bool was_enabled = reg.enabled();
    reg.enable(true);
    const std::string pack_name = workload::packName(GetParam());
    for (const auto &[consensus, block] :
         {std::pair{"pooled", &pooled}, std::pair{"serial", &serial}}) {
        std::uint64_t fault_seed = 7;
        for (const FaultConfig &fc : faultConfigs()) {
            fault::FaultPlan plan;
            workload::BlockRun run_block = *block;
            if (fc.any) {
                fault::FaultInjector inj(fault_seed++);
                plan = inj.plan(*block, fc.params);
                run_block = fault::FaultInjector::degrade(*block, plan);
            }
            workload::BlockRun bare = run_block;
            bare.consensusDigest.reset();
            const fault::FaultPlan *p = plan.empty() ? nullptr : &plan;

            for (bool commutative : {false, true}) {
                const std::string label =
                    pack_name + " / " + consensus + " / " + fc.name
                    + (commutative ? " / cycle-commutative"
                                   : " / cycle-exact");
                arch::MtpuConfig cfg;
                cfg.numPus = kNumPus;
                cfg.commutative = commutative;
                core::MtpuProcessor proc(cfg);
                core::RunOptions opt;
                opt.recovery.validateConflicts = true;
                opt.recovery.plan = p;
                opt.recovery.genesis = &genesis;
                const sched::EngineStats stats =
                    proc.execute(run_block, opt);

                const std::uint64_t before = replayedSoFar();
                const fault::AuditReport fast =
                    fault::Auditor(genesis, run_block, p, commutative)
                        .audit(stats);
                const std::uint64_t replayed = replayedSoFar() - before;
                const fault::AuditReport full =
                    fault::Auditor(genesis, bare, p, commutative)
                        .audit(stats);

                EXPECT_TRUE(full.ok()) << label << ": " << full.message;
                EXPECT_EQ(fast.ok(), full.ok()) << label;
                EXPECT_EQ(fast.orderComplete, full.orderComplete) << label;
                EXPECT_EQ(fast.linearExtension, full.linearExtension)
                    << label;
                EXPECT_EQ(fast.digestMatch, full.digestMatch) << label;
                EXPECT_EQ(fast.engineStateMatch, full.engineStateMatch)
                    << label;
                EXPECT_EQ(fast.expected, full.expected) << label;
                EXPECT_EQ(fast.actual, full.actual) << label;
                EXPECT_EQ(fast.message, full.message) << label;
#if MTPU_OBS_ENABLED
                if (!fc.semantic() && fast.ok()) {
                    EXPECT_EQ(replayed, 0u) << label;
                }
#else
                (void)replayed;
#endif
            }
        }
    }
    reg.enable(was_enabled);
}

/**
 * The pairwise reference the key-indexed workload::conflictGraph
 * replaced: every pair i < j through AccessSet::conflictsWith, then
 * evm::conflictsExactly when eliding.
 */
workload::ConflictGraph
pairwiseGraph(const workload::BlockRun &block, bool elide,
              const std::set<evm::StateKey> &veto)
{
    workload::ConflictGraph g;
    g.preds.resize(block.txs.size());
    for (std::size_t j = 0; j < block.txs.size(); ++j) {
        const evm::AccessSet &a = block.txs[j].access;
        for (std::size_t i = 0; i < j; ++i) {
            const evm::AccessSet &b = block.txs[i].access;
            if (!a.conflictsWith(b))
                continue;
            if (elide && !evm::conflictsExactly(a, b, veto)) {
                ++g.elided;
                continue;
            }
            g.preds[j].push_back(int(i));
        }
    }
    return g;
}

/**
 * The builder against the pairwise reference, elision off and on, with
 * no veto and with the abort-victim vetoes of two abort plans; then on a
 * copy with shipped edges dropped, the engine's shipped-edge filter
 * (deps kept where the elided graph has them) against the pairwise
 * conflictsExactly filter, and the engine's elided count.
 */
void
expectGraphMatchesPairwise(const workload::BlockRun &block,
                           const evm::WorldState &genesis,
                           const std::string &label)
{
    // A sparse plan vetoes some commutative groups, a dense one all.
    std::vector<std::set<evm::StateKey>> vetoes(1);
    for (double rate : {0.1, 0.5}) {
        fault::InjectionParams aborts;
        aborts.abortRate = rate;
        aborts.numPus = kNumPus;
        const fault::FaultPlan plan =
            fault::FaultInjector(11).plan(block, aborts);
        vetoes.push_back(fault::abortVeto(&plan, block));
    }
    EXPECT_FALSE(vetoes.back().empty()) << label;

    for (bool elide : {false, true}) {
        for (std::size_t v = 0; v < vetoes.size(); ++v) {
            const std::string what = label + (elide ? " / elide" : "")
                                   + " / veto " + std::to_string(v);
            const workload::ConflictGraph got =
                workload::conflictGraph(block, elide, vetoes[v]);
            const workload::ConflictGraph want =
                pairwiseGraph(block, elide, vetoes[v]);
            EXPECT_EQ(got.preds, want.preds) << what;
            EXPECT_EQ(got.elided, want.elided) << what;
        }
    }

    fault::InjectionParams drops;
    drops.dropEdgeRate = 0.5;
    drops.abortRate = 0.1;
    drops.numPus = kNumPus;
    const fault::FaultPlan plan = fault::FaultInjector(13).plan(block, drops);
    const workload::BlockRun degraded =
        fault::FaultInjector::degrade(block, plan);
    const std::set<evm::StateKey> plan_veto =
        fault::abortVeto(&plan, degraded);
    const workload::ConflictGraph truth =
        workload::conflictGraph(degraded, true, plan_veto);
    for (std::size_t j = 0; j < degraded.txs.size(); ++j) {
        std::vector<int> kept, want;
        for (int d : degraded.txs[j].deps) {
            if (std::binary_search(truth.preds[j].begin(),
                                   truth.preds[j].end(), d))
                kept.push_back(d);
            if (evm::conflictsExactly(degraded.txs[j].access,
                                      degraded.txs[std::size_t(d)].access,
                                      plan_veto))
                want.push_back(d);
        }
        EXPECT_EQ(kept, want) << label << " / degraded tx " << j;
    }

    arch::MtpuConfig cfg;
    cfg.numPus = kNumPus;
    cfg.commutative = true;
    core::MtpuProcessor proc(cfg);
    core::RunOptions opt;
    opt.recovery.validateConflicts = true;
    opt.recovery.plan = &plan;
    opt.recovery.genesis = &genesis;
    EXPECT_EQ(proc.execute(degraded, opt).commutativeDropped,
              pairwiseGraph(degraded, true, plan_veto).elided)
        << label << " / engine";
}

TEST_P(PackMatrix, ConflictGraphMatchesPairwiseReference)
{
    workload::Generator &gen = sharedGen();
    workload::PackParams params;
    params.txCount = stressTxs();
    expectGraphMatchesPairwise(
        workload::buildPackBlock(gen, GetParam(), params), gen.genesis(),
        workload::packName(GetParam()));
}

TEST(ConflictGraph, MatchesPairwiseReferenceOnTop8Mix)
{
    workload::Generator &gen = sharedGen();
    for (double dep_ratio : {0.0, 0.5, 0.9}) {
        workload::BlockParams params;
        params.txCount = 64;
        params.depRatio = dep_ratio;
        expectGraphMatchesPairwise(gen.generateBlock(params), gen.genesis(),
                                   "top8 dep " + std::to_string(dep_ratio));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Packs, PackMatrix, ::testing::ValuesIn(workload::allPacks()),
    [](const ::testing::TestParamInfo<workload::Pack> &info) {
        std::string name = workload::packName(info.param);
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

/** The packs must actually exercise what they claim to exercise. */
TEST(PackShape, FlashLoanTouchesFourContractsPerTx)
{
    workload::Generator &gen = sharedGen();
    workload::PackParams params;
    params.txCount = 8;
    workload::BlockRun block =
        workload::buildPackBlock(gen, workload::Pack::FlashLoan, params);
    const evm::Address hub = gen.contracts().byName("FlashLoanHub").address;
    const evm::Address router =
        gen.contracts().byName("UniswapV2Router02").address;
    for (const workload::TxRecord &rec : block.txs) {
        ASSERT_TRUE(rec.receipt.success) << rec.receipt.error;
        std::set<evm::Address> touched;
        for (const auto &key : rec.access.writes)
            touched.insert(key.address);
        EXPECT_GE(touched.size(), 4u)
            << "flash-loan tx should write hub, router and two tokens";
        EXPECT_TRUE(touched.count(hub));
        EXPECT_TRUE(touched.count(router));
    }
}

TEST(PackShape, AirdropChainsOnTheSender)
{
    workload::Generator &gen = sharedGen();
    workload::PackParams params;
    params.txCount = 12;
    workload::BlockRun block =
        workload::buildPackBlock(gen, workload::Pack::Airdrop, params);
    int dependent = 0;
    for (const workload::TxRecord &rec : block.txs) {
        ASSERT_TRUE(rec.receipt.success) << rec.receipt.error;
        if (!rec.deps.empty())
            ++dependent;
    }
    // Every tx after the first depends on the shared sender balance.
    EXPECT_EQ(dependent, params.txCount - 1);
}

TEST(PackShape, OracleLiquidateFormsWriteThenReadChains)
{
    workload::Generator &gen = sharedGen();
    workload::PackParams params;
    params.txCount = 15;
    workload::BlockRun block = workload::buildPackBlock(
        gen, workload::Pack::OracleLiquidate, params);
    int liquidations_depending_on_oracle = 0;
    for (std::size_t i = 0; i < block.txs.size(); ++i) {
        const workload::TxRecord &rec = block.txs[i];
        ASSERT_TRUE(rec.receipt.success) << i << ": " << rec.receipt.error;
        if (rec.function != "liquidate")
            continue;
        for (int dep : rec.deps) {
            if (block.txs[std::size_t(dep)].function == "setPrice")
                ++liquidations_depending_on_oracle;
        }
    }
    EXPECT_GT(liquidations_depending_on_oracle, 0)
        << "no liquidate tx depended on a setPrice tx";
}

TEST(PackShape, AdversarialGasGriefingFailsDeterministically)
{
    workload::Generator &gen = sharedGen();
    workload::PackParams params;
    params.txCount = 10;
    workload::BlockRun block = workload::buildPackBlock(
        gen, workload::Pack::Adversarial, params);
    int failed = 0;
    for (const workload::TxRecord &rec : block.txs) {
        if (!rec.receipt.success)
            ++failed;
    }
    // The burnGas txs run under a 60k gas limit against a loop sized
    // to exceed it: they must fail, and everything else must succeed.
    EXPECT_EQ(failed, 2) << "expected exactly the burnGas txs to OOG";
}

} // namespace
} // namespace mtpu
