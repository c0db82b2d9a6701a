/**
 * @file
 * Commutativity-aware conflict taming (DESIGN.md §14), scheduler side:
 * the group-interval classifier fills AccessSet::commutative, DAG
 * generation drops commutative-only edges when asked (and keeps the
 * edge when a constraint is order-dependent), the engine stays
 * bit-identical across host thread counts with elision armed, and the
 * serializability auditor accepts elided schedules under fault
 * injection without relaxing its digest checks; on the functional
 * tier, delta commits cut the hot pack's re-executions at least 5x.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "contracts/contracts.hpp"
#include "core/functional.hpp"
#include "core/mtpu.hpp"
#include "fault/injector.hpp"
#include "workload/packs.hpp"

namespace mtpu {
namespace {

using workload::Pack;

workload::BlockRun
packBlock(workload::Generator &gen, Pack pack, int txs)
{
    workload::PackParams params;
    params.txCount = txs;
    return workload::buildPackBlock(gen, pack, params);
}

std::size_t
depCount(const workload::BlockRun &b)
{
    std::size_t n = 0;
    for (const auto &rec : b.txs)
        n += rec.deps.size();
    return n;
}

TEST(CommutativeDagTest, HotPackEdgesAreElided)
{
    workload::Generator exact_gen(7, 128), comm_gen(7, 128);
    comm_gen.setCommutativeDag(true);
    workload::BlockRun eb = packBlock(exact_gen, Pack::HotToken, 24);
    workload::BlockRun cb = packBlock(comm_gen, Pack::HotToken, 24);

    // Every pair collides on balances[hot], so the exact DAG is dense;
    // the classifier proves all deltas reorderable, so no edges remain.
    EXPECT_GT(depCount(eb), 0u);
    EXPECT_EQ(depCount(cb), 0u);

    // Elision changes the DAG only: receipts and the commutative
    // classification itself are identical either way.
    ASSERT_EQ(eb.txs.size(), cb.txs.size());
    for (std::size_t i = 0; i < eb.txs.size(); ++i) {
        EXPECT_EQ(eb.txs[i].receipt.toRlp(), cb.txs[i].receipt.toRlp());
        EXPECT_FALSE(cb.txs[i].access.commutative.empty());
        EXPECT_EQ(eb.txs[i].access.commutative,
                  cb.txs[i].access.commutative);
    }
}

TEST(CommutativeDagTest, OrderDependentWriterKeepsItsEdge)
{
    // t0 credits the hot account 5; t1 spends the account's full grant
    // plus 3, which only succeeds after t0's credit arrives. t1's
    // balance guard is not uniform over the achievable interval
    // [grant, grant + 5], so the classifier must pin t1 back into
    // program order while t0 itself stays commutative.
    workload::Generator gen(9, 64);
    const contracts::ContractSpec &dai = gen.contracts().byName("Dai");
    const U256 grant(1'000'000'000'000ull);

    workload::BlockRun block;
    block.header.height = 1;
    block.header.timestamp = 1700000000;
    block.header.coinbase = U256(0xc01bba5e);

    workload::TxRecord t0;
    t0.contract = "Dai";
    t0.function = "transfer";
    t0.isErc20 = true;
    t0.tx.from = contracts::userAddress(1);
    t0.tx.to = dai.address;
    t0.tx.data = contracts::ContractSet::encodeCall(
        contracts::sel::kTransfer, {contracts::userAddress(0), U256(5)});
    workload::TxRecord t1 = t0;
    t1.tx.from = contracts::userAddress(0);
    t1.tx.data = contracts::ContractSet::encodeCall(
        contracts::sel::kTransfer,
        {contracts::userAddress(2), grant + U256(3)});
    block.txs.push_back(std::move(t0));
    block.txs.push_back(std::move(t1));

    workload::runConsensusStage(block, gen.genesis(), nullptr,
                                /*commutative_dag=*/true);
    ASSERT_TRUE(block.txs[0].receipt.success);
    ASSERT_TRUE(block.txs[1].receipt.success);

    // The contested slot is commutative for t0 only, so the edge
    // survives elision.
    for (const auto &key : block.txs[0].access.commutative)
        EXPECT_EQ(block.txs[1].access.commutative.count(key), 0u);
    ASSERT_EQ(block.txs[1].deps.size(), 1u);
    EXPECT_EQ(block.txs[1].deps[0], 0);
}

TEST(CommutativeEngineTest, BitIdenticalAcrossHostThreads)
{
    workload::Generator gen(11, 256);
    gen.setCommutativeDag(true);
    std::vector<workload::BlockRun> blocks;
    blocks.push_back(packBlock(gen, Pack::HotToken, 32));
    blocks.push_back(packBlock(gen, Pack::MintStorm, 32));

    // Sequential reference digests, one per block (each pack block is
    // consensus-executed from genesis).
    std::vector<U256> want;
    for (const auto &block : blocks) {
        core::FunctionalPipeline pipe(gen.genesis(), /*threads=*/1);
        pipe.executeBlock(block);
        want.push_back(pipe.state().digest());
    }

    core::RunOptions opt;
    opt.recovery.validateConflicts = true;
    for (int threads : {1, 2, 8}) {
        arch::MtpuConfig cfg;
        cfg.threads = threads;
        cfg.commutative = true;
        core::MtpuProcessor proc(cfg);
        std::uint64_t elided = 0;
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            core::AuditedRun res =
                proc.executeAudited(blocks[b], gen.genesis(), opt);
            ASSERT_TRUE(res.ok()) << "threads " << threads << " block "
                                  << b << ": " << res.audit.message;
            ASSERT_NE(res.stats.finalState, nullptr);
            EXPECT_EQ(res.stats.finalState->digest(), want[b])
                << "threads " << threads << " block " << b;
            elided += res.stats.commutativeDropped;
        }
        // The ground-truth dependency filter dropped commutative-only
        // edges at every thread count (elision is not speculation).
        EXPECT_GT(elided, 0u) << "threads " << threads;
    }
}

TEST(CommutativeAuditTest, FaultedElidedBlocksAuditClean)
{
    // Injected mid-transaction aborts on top of elided hot-pack DAGs:
    // the auditor forgives commutative-only orderings but its digest
    // checks are untouched — every faulted run must still audit clean.
    workload::Generator gen(13, 256);
    gen.setCommutativeDag(true);
    arch::MtpuConfig cfg;
    cfg.numPus = 4;
    cfg.commutative = true;
    core::MtpuProcessor proc(cfg);
    fault::FaultInjector inj(21);
    fault::InjectionParams params;
    params.abortRate = 0.2;
    params.numPus = cfg.numPus;

    std::uint64_t injected = 0;
    for (int i = 0; i < 8; ++i) {
        workload::BlockRun b =
            packBlock(gen, i % 2 == 0 ? Pack::HotToken : Pack::MintStorm, 24);
        fault::FaultPlan plan = inj.plan(b, params);
        workload::BlockRun degraded =
            fault::FaultInjector::degrade(b, plan);

        core::RunOptions opt;
        opt.recovery.validateConflicts = true;
        opt.recovery.plan = &plan;
        core::AuditedRun res =
            proc.executeAudited(degraded, gen.genesis(), opt);
        EXPECT_TRUE(res.audit.ok())
            << "block " << i << ": " << res.audit.message;
        EXPECT_FALSE(res.stats.watchdogFired);
        injected += res.stats.injectedAborts;
    }
    EXPECT_GT(injected, 0u) << "no forced abort ever landed";
}

/**
 * The re-execution cut on the hot-ERC20 pack (Garamvolgyi et al. 2022,
 * "Taming Application-Inherent Conflicts"): four chained 64-tx blocks
 * on the 2-thread FunctionalPipeline, each variant on a fresh pipeline.
 * Exact validation re-executes every transaction after a block's first;
 * commutative delta commits must re-execute at least 5x fewer. When the
 * commutative variant re-executes nothing the cut is the exact count.
 * Counts come from FunctionalBlockResult, so the gate holds with the
 * obs registry compiled out.
 */
TEST(CommutativePipelineTest, HotTokenReexecutionsCutAtLeastFiveTimes)
{
    workload::Generator gen(1, 512, 0);
    std::vector<workload::BlockRun> blocks;
    for (int b = 0; b < 4; ++b)
        blocks.push_back(packBlock(gen, Pack::HotToken, 64));

    std::uint64_t reexecuted[2] = {0, 0};
    U256 digest[2];
    for (bool commutative : {false, true}) {
        core::FunctionalPipeline pipe(gen.genesis(), /*threads=*/2);
        pipe.setCommutative(commutative);
        for (const workload::BlockRun &block : blocks)
            reexecuted[commutative] += pipe.executeBlock(block).reexecuted;
        digest[commutative] = pipe.state().digest();
    }
    EXPECT_EQ(digest[0], digest[1]);

    const double cut =
        reexecuted[1] == 0
            ? double(std::max<std::uint64_t>(reexecuted[0], 1))
            : double(reexecuted[0]) / double(reexecuted[1]);
    EXPECT_GE(cut, 5.0) << "exact " << reexecuted[0] << ", commutative "
                        << reexecuted[1];
}

} // namespace
} // namespace mtpu
