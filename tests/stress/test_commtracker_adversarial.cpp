/**
 * @file
 * Adversarial coverage for the commutativity tracker (DESIGN.md §14)
 * against the Recursor / FlashLoanHub contracts, and for the
 * specCheckLive() BoundsMiss fallback on the mint-storm pack:
 *
 *  - a recursive self-call chain (poke) must keep its counter chain
 *    clean across nested frames — one commutative delta of depth+1;
 *  - MUL in the chain (pokeMul) must poison the slot to exact class;
 *  - storing a tagged chain value into a different slot (tease) must
 *    poison the source chain — cross-slot laundering is not
 *    commutative;
 *  - the flash-loan borrow/repay pair must survive the external router
 *    call with a clean net-zero chain;
 *  - a mint whose overflow guard held at speculation time but not
 *    against the live counter must fail validation as BoundsMiss (not
 *    a plain ValidationMiss), and the functional pipeline must resolve
 *    those misses to bit-identical digests at threads 1, 2 and 8.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "contracts/contracts.hpp"
#include "core/functional.hpp"
#include "evm/interpreter.hpp"
#include "evm/memo.hpp"
#include "evm/speculative.hpp"
#include "workload/packs.hpp"

namespace mtpu {
namespace {

using evm::SpecResult;
using evm::SpecVerdict;

// Recursor storage layout (contracts/defi.cpp).
constexpr std::uint64_t kRecCounterSlot = 0;
constexpr std::uint64_t kRecAccSlot = 1;
constexpr std::uint64_t kRecMirrorSlot = 2;
constexpr std::uint64_t kRecProductSlot = 3;

struct TrackerFixture : ::testing::Test
{
    workload::Generator gen{77, 64};

    evm::BlockHeader
    header() const
    {
        evm::BlockHeader h;
        h.height = 1;
        h.timestamp = 1700000000;
        h.coinbase = U256(0xc01bba5e);
        return h;
    }

    /** Speculate one call with commutative tracking on. */
    SpecResult
    spec(const std::string &contract, const std::string &function,
         const std::vector<U256> &args, int sender = 0)
    {
        evm::Transaction tx =
            gen.singleCall(contract, function, args, U256(), sender).tx;
        evm::SpecOptions opts;
        opts.commutative = true;
        return evm::speculate(gen.genesis(), header(), tx, opts);
    }

    const SpecResult::StorageDelta *
    findDelta(const SpecResult &r, const evm::Address &addr,
              const U256 &slot)
    {
        for (const SpecResult::StorageDelta &d : r.storage) {
            if (d.addr == addr && d.slot == slot)
                return &d;
        }
        return nullptr;
    }
};

TEST_F(TrackerFixture, RecursiveCounterChainStaysCommutative)
{
    const evm::Address rec = gen.contracts().byName("Recursor").address;
    const int depth = 6;
    SpecResult r = spec("Recursor", "poke", {U256(std::uint64_t(depth))});
    ASSERT_TRUE(r.receipt.success) << r.receipt.error;

    // Each of the depth+1 frames adds 1 to the counter; the re-load at
    // every recursion level observes exactly the chain value, so the
    // whole nest collapses to one clean commutative delta.
    const SpecResult::StorageDelta *d =
        findDelta(r, rec, U256(kRecCounterSlot));
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->commutative)
        << "recursion must not poison the counter chain";
    EXPECT_EQ(d->delta, U256(std::uint64_t(depth + 1)));
    EXPECT_FALSE(d->constraints.empty())
        << "the checked-add overflow guard must leave a constraint";
}

TEST_F(TrackerFixture, MulInChainPoisonsTheSlot)
{
    const evm::Address rec = gen.contracts().byName("Recursor").address;
    SpecResult r = spec("Recursor", "pokeMul", {U256(9)});
    ASSERT_TRUE(r.receipt.success) << r.receipt.error;

    const SpecResult::StorageDelta *d =
        findDelta(r, rec, U256(kRecProductSlot));
    ASSERT_NE(d, nullptr);
    EXPECT_FALSE(d->commutative)
        << "2*x+1 is affine but not a pure add/sub chain";
}

TEST_F(TrackerFixture, CrossSlotStoreOfTaggedValuePoisonsSource)
{
    const evm::Address rec = gen.contracts().byName("Recursor").address;
    SpecResult r = spec("Recursor", "tease", {U256(5)});
    ASSERT_TRUE(r.receipt.success) << r.receipt.error;

    // acc += 5 alone would be commutative, but the tagged chain value
    // escapes into the mirror slot: replaying "live + 5" while the
    // mirror froze the speculated absolute value would diverge, so the
    // source chain must demote to exact.
    const SpecResult::StorageDelta *src =
        findDelta(r, rec, U256(kRecAccSlot));
    ASSERT_NE(src, nullptr);
    EXPECT_FALSE(src->commutative)
        << "cross-slot laundering must poison the source chain";
    const SpecResult::StorageDelta *mirror =
        findDelta(r, rec, U256(kRecMirrorSlot));
    ASSERT_NE(mirror, nullptr);
    EXPECT_FALSE(mirror->commutative);
}

TEST_F(TrackerFixture, FlashLoanChainSurvivesExternalCall)
{
    const contracts::ContractSet &set = gen.contracts();
    const evm::Address hub = set.byName("FlashLoanHub").address;
    SpecResult r = spec("FlashLoanHub", "flashArb",
                        {set.byName("TetherUSD").address,
                         set.byName("LinkToken").address, U256(2048)},
                        /*sender=*/3);
    ASSERT_TRUE(r.receipt.success) << r.receipt.error;

    // outstanding += amt ... router call ... outstanding -= amt: the
    // re-load after the call observes the chain's own value, so the
    // borrow/repay pair stays one commutative net-zero delta.
    const SpecResult::StorageDelta *out = findDelta(r, hub, U256(0));
    ASSERT_NE(out, nullptr);
    EXPECT_TRUE(out->commutative)
        << "external call must not poison the borrow/repay chain";
    EXPECT_EQ(out->delta, U256(0));

    // fees += amt >> 8 is a plain one-shot chain.
    const SpecResult::StorageDelta *fees = findDelta(r, hub, U256(1));
    ASSERT_NE(fees, nullptr);
    EXPECT_TRUE(fees->commutative);
    EXPECT_EQ(fees->delta, U256(8)); // 2048 >> 8
}

TEST_F(TrackerFixture, SaturatedCounterFailsAsBoundsMiss)
{
    const evm::Address dai = gen.contracts().byName("Dai").address;
    evm::Address self = gen.user(1);
    SpecResult r = spec("Dai", "mint", {self, U256(50)}, /*sender=*/1);
    ASSERT_TRUE(r.receipt.success) << r.receipt.error;

    // Saturate totalSupply in the live state: the speculation's
    // no-overflow constraint on the += 50 chain cannot hold.
    evm::WorldState live = gen.genesis();
    live.setStorage(dai, U256(0), U256::max() - U256(10));
    live.commit();

    EXPECT_EQ(evm::specCheckLive(r, live, header().coinbase),
              SpecVerdict::BoundsMiss);

    // An unsaturated live counter still validates.
    evm::WorldState ok = gen.genesis();
    ok.setStorage(dai, U256(0), U256(123456));
    ok.commit();
    EXPECT_EQ(evm::specCheckLive(r, ok, header().coinbase),
              SpecVerdict::Valid);
}

TEST_F(TrackerFixture, MintStormBoundsMissFallbackAcrossThreads)
{
    const evm::Address dai = gen.contracts().byName("Dai").address;

    workload::PackParams params;
    params.txCount = 24;
    workload::BlockRun block =
        workload::buildPackBlock(gen, workload::Pack::MintStorm, params);

    // Start the chain with totalSupply 150 below the overflow guard
    // (the storm's 24 mints sum to 300): later speculations — fanned
    // out against the block-start state — must fail their range check
    // as BoundsMiss and fall back to real re-execution, which reverts
    // on the guard exactly like the sequential reference.
    evm::WorldState saturated = gen.genesis();
    saturated.setStorage(dai, U256(0), U256::max() - U256(150));
    saturated.commit();

    U256 want;
    std::vector<evm::Receipt> want_receipts;
    for (int threads : {1, 2, 8}) {
        evm::MemoCache::global().clear();
        core::FunctionalPipeline pipe(saturated, threads);
        pipe.setCommutative(true);
        core::FunctionalBlockResult res = pipe.executeBlock(block);
        ASSERT_EQ(res.receipts.size(), block.txs.size());
        if (threads == 1) {
            want = pipe.state().digest();
            want_receipts = res.receipts;
            EXPECT_EQ(res.reexecBoundsMiss, 0u)
                << "sequential execution never speculates";
        } else {
            EXPECT_EQ(pipe.state().digest(), want)
                << "threads=" << threads;
            ASSERT_EQ(want_receipts.size(), res.receipts.size());
            for (std::size_t i = 0; i < res.receipts.size(); ++i) {
                EXPECT_EQ(res.receipts[i].toRlp(),
                          want_receipts[i].toRlp())
                    << "threads=" << threads << " receipt " << i;
            }
            EXPECT_GT(res.reexecBoundsMiss, 0u)
                << "threads=" << threads
                << ": the saturated counter must trip the range check";
        }
    }

    // Sequential reference digest: some mints revert on the guard, and
    // every backend above agreed with this state.
    evm::WorldState ref = saturated;
    evm::Interpreter interp;
    evm::BlockHeader h = block.header;
    int reverted = 0;
    for (const workload::TxRecord &rec : block.txs) {
        evm::Receipt r = interp.applyTransaction(ref, h, rec.tx);
        reverted += r.success ? 0 : 1;
    }
    EXPECT_EQ(ref.digest(), want);
    EXPECT_GT(reverted, 0) << "the storm must actually hit the guard";
}

} // namespace
} // namespace mtpu
