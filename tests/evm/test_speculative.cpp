/**
 * @file
 * Unit tests of the speculative pre-execution primitives
 * (evm/speculative.hpp): delta extraction, commit-time validation, and
 * fast-path delta replay. These pin down that the fast path (a) is
 * actually taken for independent transactions — i.e. it is not dead
 * code behind an always-failing validator — and (b) refuses exactly
 * the transactions whose observations a committed conflict
 * invalidated.
 */

#include <gtest/gtest.h>

#include "contracts/contracts.hpp"
#include "evm/interpreter.hpp"
#include "evm/speculative.hpp"
#include "workload/workload.hpp"

namespace mtpu::evm {
namespace {

/** The header Generator::singleCall() builds its records against. */
BlockHeader
testHeader()
{
    BlockHeader header;
    header.height = 1;
    header.timestamp = 1700000000;
    header.coinbase = U256(0xc01bba5e);
    return header;
}

struct SpecFixture : ::testing::Test
{
    workload::Generator gen{42, 64};

    Transaction
    transfer(int sender, int recipient, std::uint64_t amount)
    {
        return gen.singleCall("TetherUSD", "transfer",
                              {contracts::userAddress(recipient),
                               U256(amount)},
                              U256(), sender)
            .tx;
    }

    Transaction
    daiTransfer(int sender, int recipient, const U256 &amount)
    {
        return gen.singleCall("Dai", "transfer",
                              {contracts::userAddress(recipient), amount},
                              U256(), sender)
            .tx;
    }

    Transaction
    daiTransferFrom(int spender, int owner, int recipient,
                    const U256 &amount)
    {
        return gen.singleCall("Dai", "transferFrom",
                              {contracts::userAddress(owner),
                               contracts::userAddress(recipient), amount},
                              U256(), spender)
            .tx;
    }
};

TEST_F(SpecFixture, SpeculationCapturesReceiptAndDeltas)
{
    BlockHeader header = testHeader();
    Transaction tx = transfer(0, 1, 5);

    SpecOptions opts;
    opts.wantTrace = true;
    SpecResult r = speculate(gen.genesis(), header, tx, opts);
    ASSERT_TRUE(r.ran);
    EXPECT_TRUE(r.receipt.success);
    EXPECT_FALSE(r.trace.events.empty());
    EXPECT_FALSE(r.access.reads.empty());
    // A token transfer mutates at least two storage slots (sender and
    // recipient balances), the sender nonce, and balances (fee).
    EXPECT_GE(r.storage.size(), 2u);
    EXPECT_FALSE(r.nonces.empty());

    // The speculation must not have touched the base state.
    EXPECT_EQ(gen.genesis().digest(),
              workload::Generator(42, 64).genesis().digest());
}

TEST_F(SpecFixture, IndependentSpeculationSurvivesCommit)
{
    BlockHeader header = testHeader();
    Transaction tx0 = transfer(0, 1, 5);
    Transaction tx1 = transfer(2, 3, 7); // disjoint accounts

    SpecResult s0 = speculate(gen.genesis(), header, tx0, SpecOptions{});
    SpecResult s1 = speculate(gen.genesis(), header, tx1, SpecOptions{});

    // Reference: plain sequential execution.
    WorldState ref = gen.genesis();
    Interpreter interp;
    Receipt ref0 = interp.applyTransaction(ref, header, tx0);
    Receipt ref1 = interp.applyTransaction(ref, header, tx1);

    WorldState live = gen.genesis();
    ASSERT_EQ(specCheckLive(s0, live, header.coinbase), SpecVerdict::Valid);
    specApply(s0, live, header.coinbase);
    live.commit();

    // tx1 touches none of tx0's keys, so its speculation must still
    // validate against the mutated live state — the fast path fires.
    ASSERT_EQ(specCheckLive(s1, live, header.coinbase), SpecVerdict::Valid);
    specApply(s1, live, header.coinbase);
    live.commit();

    EXPECT_EQ(s0.receipt.toRlp(), ref0.toRlp());
    EXPECT_EQ(s1.receipt.toRlp(), ref1.toRlp());
    EXPECT_EQ(live.digest(), ref.digest());
}

TEST_F(SpecFixture, ConflictingSpeculationIsRejected)
{
    BlockHeader header = testHeader();
    Transaction tx0 = transfer(0, 1, 5);
    Transaction tx1 = transfer(1, 2, 3); // reads/writes user 1's slot

    SpecResult s0 = speculate(gen.genesis(), header, tx0, SpecOptions{});
    SpecResult s1 = speculate(gen.genesis(), header, tx1, SpecOptions{});

    WorldState live = gen.genesis();
    ASSERT_EQ(specCheckLive(s0, live, header.coinbase), SpecVerdict::Valid);
    specApply(s0, live, header.coinbase);
    live.commit();

    // tx0 changed user 1's token balance, which tx1's speculation both
    // read and wrote from its pre-tx0 value: stale, must be rejected.
    EXPECT_NE(specCheckLive(s1, live, header.coinbase), SpecVerdict::Valid);

    // The slow path (real re-execution) then matches the sequential
    // reference exactly.
    Interpreter interp;
    interp.applyTransaction(live, header, tx1);

    WorldState ref = gen.genesis();
    Interpreter ref_interp;
    ref_interp.applyTransaction(ref, header, tx0);
    ref_interp.applyTransaction(ref, header, tx1);
    EXPECT_EQ(live.digest(), ref.digest());
}

TEST_F(SpecFixture, CoinbaseFeesAreCommutative)
{
    BlockHeader header = testHeader();
    Transaction tx0 = transfer(0, 1, 5);
    Transaction tx1 = transfer(2, 3, 7);

    SpecResult s0 = speculate(gen.genesis(), header, tx0, SpecOptions{});
    SpecResult s1 = speculate(gen.genesis(), header, tx1, SpecOptions{});

    WorldState live = gen.genesis();
    specApply(s0, live, header.coinbase);
    live.commit();
    // Both speculations observed the coinbase's pre-block balance;
    // committing tx0 bumped it. tx1 must survive anyway (fees are
    // applied as deltas, not absolute values)...
    ASSERT_EQ(specCheckLive(s1, live, header.coinbase), SpecVerdict::Valid);
    specApply(s1, live, header.coinbase);
    live.commit();

    // ...and the stacked credits must equal the sequential total.
    WorldState ref = gen.genesis();
    Interpreter interp;
    interp.applyTransaction(ref, header, tx0);
    interp.applyTransaction(ref, header, tx1);
    EXPECT_EQ(live.balance(header.coinbase), ref.balance(header.coinbase));
}

TEST_F(SpecFixture, CommutativeDeltaSurvivesConflictingCommit)
{
    BlockHeader header = testHeader();
    // Two Dai transfers to the same hot recipient from distinct
    // senders: under exact validation the second speculation is stale
    // the moment the first commits (both rewrite balances[hot]); the
    // commutative delta class forgives it by range check + replay.
    Transaction tx0 = daiTransfer(1, 9, U256(5));
    Transaction tx1 = daiTransfer(2, 9, U256(7));

    SpecOptions opts;
    opts.commutative = true;
    SpecResult s0 = speculate(gen.genesis(), header, tx0, opts);
    SpecResult s1 = speculate(gen.genesis(), header, tx1, opts);
    ASSERT_TRUE(s0.ran && s1.ran);
    ASSERT_TRUE(s0.receipt.success && s1.receipt.success);

    // Both balance slots ride checked add/sub chains.
    auto commCount = [](const SpecResult &r) {
        std::size_t n = 0;
        for (const auto &d : r.storage)
            n += d.commutative ? 1 : 0;
        return n;
    };
    EXPECT_GE(commCount(s0), 2u);
    EXPECT_GE(commCount(s1), 2u);

    WorldState live = gen.genesis();
    ASSERT_EQ(specCheckLive(s0, live, header.coinbase),
              SpecVerdict::Valid);
    specApply(s0, live, header.coinbase);
    live.commit();

    // Exact-match validation rejects the stale speculation...
    SpecResult exact = speculate(gen.genesis(), header, tx1, SpecOptions{});
    EXPECT_NE(specCheckLive(exact, live, header.coinbase), SpecVerdict::Valid);
    // ...the range-validated delta commits anyway.
    ASSERT_EQ(specCheckLive(s1, live, header.coinbase),
              SpecVerdict::Valid);
    specApply(s1, live, header.coinbase);
    live.commit();

    WorldState ref = gen.genesis();
    Interpreter interp;
    Receipt r0 = interp.applyTransaction(ref, header, tx0);
    Receipt r1 = interp.applyTransaction(ref, header, tx1);
    EXPECT_EQ(s0.receipt.toRlp(), r0.toRlp());
    EXPECT_EQ(s1.receipt.toRlp(), r1.toRlp());
    EXPECT_EQ(live.digest(), ref.digest());
}

TEST_F(SpecFixture, CommutativeUnderflowFallsBackByBoundsMiss)
{
    BlockHeader header = testHeader();
    const U256 grant(1'000'000'000'000ull); // genesis token grant
    // Two spenders race to pull from the same owner. The first drains
    // the full balance; the second recorded its subtraction chain with
    // a "no underflow" branch constraint against the pre-block value.
    // At commit the live balance is zero: the range check must fail as
    // a BoundsMiss (not a plain validation miss), and the fallback
    // re-execution reverts exactly like the sequential reference.
    Transaction tx0 = daiTransferFrom(1, 0, 1, grant);
    Transaction tx1 = daiTransferFrom(2, 0, 2, U256(1));

    SpecOptions opts;
    opts.commutative = true;
    SpecResult s0 = speculate(gen.genesis(), header, tx0, opts);
    SpecResult s1 = speculate(gen.genesis(), header, tx1, opts);
    ASSERT_TRUE(s0.receipt.success && s1.receipt.success);

    WorldState live = gen.genesis();
    ASSERT_EQ(specCheckLive(s0, live, header.coinbase),
              SpecVerdict::Valid);
    specApply(s0, live, header.coinbase);
    live.commit();

    EXPECT_EQ(specCheckLive(s1, live, header.coinbase),
              SpecVerdict::BoundsMiss);
    EXPECT_NE(specCheckLive(s1, live, header.coinbase), SpecVerdict::Valid);

    // Slow path: the balance raced to zero, the transfer reverts.
    Interpreter interp;
    Receipt rr = interp.applyTransaction(live, header, tx1);
    EXPECT_FALSE(rr.success);

    WorldState ref = gen.genesis();
    Interpreter ref_interp;
    ref_interp.applyTransaction(ref, header, tx0);
    ref_interp.applyTransaction(ref, header, tx1);
    EXPECT_EQ(live.digest(), ref.digest());
}

TEST(CommConstraintTest, WraparoundChainIsRejectedByUniformity)
{
    // A chain observed 8 below the live value, compared against the
    // constant 50 with outcome "not equal".
    CommConstraint c;
    c.kind = CommConstraint::Kind::Eq;
    c.aChain = true;
    c.aOff = U256(0) - U256(8);
    c.bOff = U256(50);
    c.expected = false;

    // Pointwise evaluation wraps mod 2^256 and holds at both ends...
    EXPECT_TRUE(constraintHolds(c, U256(5))); // 5 - 8 wraps to 2^256-3
    EXPECT_TRUE(constraintHolds(c, U256(10)));
    // ...but uniformity refuses an interval whose shifted range wraps
    // 2^256: endpoint evaluation cannot cover the interior there.
    EXPECT_FALSE(constraintsUniform({c}, U256(5), U256(10)));

    // A non-wrapping window clear of the constant is accepted...
    EXPECT_TRUE(constraintsUniform({c}, U256(20), U256(30)));
    // ...and one that strictly contains the constant is rejected even
    // though both endpoints still evaluate to "not equal".
    EXPECT_TRUE(constraintHolds(c, U256(40)));
    EXPECT_TRUE(constraintHolds(c, U256(70)));
    EXPECT_FALSE(constraintsUniform({c}, U256(40), U256(70)));
}

TEST(CommTrackerTest, MixedExactWriteDemotesSlotToExact)
{
    CommTracker t;
    Address token(0xda1);
    U256 slot(7);

    // A clean load -> +5 chain store keeps the record commutative.
    int idx = t.load(token, slot, U256(100));
    ASSERT_GE(idx, 0);
    t.store(token, slot, U256(100), idx, U256(5));
    const CommTracker::Record *rec = t.find(token, slot);
    ASSERT_NE(rec, nullptr);
    EXPECT_TRUE(rec->hasStore);
    EXPECT_FALSE(rec->poisoned);
    EXPECT_EQ(rec->curOff, U256(5));

    // A later exact (untagged) store to the same slot mixes absolute
    // and delta writes: the slot must demote to the exact class.
    t.store(token, slot, U256(105), /*valRecord=*/-1, U256());
    EXPECT_TRUE(t.find(token, slot)->poisoned);
}

} // namespace
} // namespace mtpu::evm
