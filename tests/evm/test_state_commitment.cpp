/**
 * @file
 * The cached state commitment (DESIGN.md §16) against a from-scratch
 * reference: seeded random sequences of journaled setters, nested
 * snapshot/revert, zero writes, account creation and its revert,
 * specApply() commits from overlays, copies that then diverge, and
 * toRlp()/fromRlp() round trips. After every step the cached digest()
 * must equal tests/evm/reference_digest.hpp's.
 */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "evm/speculative.hpp"
#include "evm/state.hpp"
#include "reference_digest.hpp"
#include "support/rng.hpp"

namespace mtpu::evm {
namespace {

using testing::referenceDigest;

const Address kCoinbase = U256(0xc01bba5e);

Address
pickAddress(Rng &rng)
{
    return U256(0x100 + rng.below(12));
}

/** Slots that crowd a few buckets, plus hashed (mapping-style) keys. */
U256
pickSlot(Rng &rng)
{
    if (rng.chance(0.2))
        return keccak256Pair(U256(rng.below(16)), U256(1));
    return U256(rng.below(4) * 256 + rng.below(6));
}

/** Zero with probability 1/4 (slot clears), else a small word. */
U256
pickWord(Rng &rng)
{
    return rng.chance(0.25) ? U256() : U256(1 + rng.below(1000));
}

/** One random journaled mutation. */
void
mutate(WorldState &st, Rng &rng)
{
    const Address a = pickAddress(rng);
    switch (rng.below(8)) {
      case 0:
      case 1:
      case 2:
        st.setStorage(a, pickSlot(rng), pickWord(rng));
        break;
      case 3:
        st.setBalance(a, pickWord(rng));
        break;
      case 4:
        if (rng.chance(0.5))
            st.addBalance(a, pickWord(rng));
        else
            st.subBalance(a, pickWord(rng));
        break;
      case 5:
        if (rng.chance(0.5))
            st.incNonce(a);
        else
            st.setNonce(a, rng.below(5));
        break;
      case 6: {
        Bytes code(rng.below(3) * 7, std::uint8_t(rng.below(256)));
        st.setCode(a, code); // includes empty code
        break;
      }
      default:
        st.createAccount(a);
        break;
    }
}

/**
 * The overlay's open journal as a delta set, the way speculate()
 * extracts it, so specApply() commits the overlay into its base.
 */
SpecResult
deltasOf(const WorldState &overlay)
{
    using Kind = WorldState::JournalEntry::Kind;
    SpecResult r;
    std::set<std::pair<Address, U256>> storage;
    std::set<Address> balance, nonce, code, created;
    for (const WorldState::JournalEntry &e : overlay.journal()) {
        switch (e.kind) {
          case Kind::StorageChange:
            if (storage.insert({e.address, e.slot}).second)
                r.storage.push_back({e.address, e.slot, e.prevWord,
                                     overlay.storageAt(e.address,
                                                       e.slot)});
            break;
          case Kind::BalanceChange:
            if (balance.insert(e.address).second)
                r.balances.push_back({e.address, e.prevWord,
                                      overlay.balance(e.address)});
            break;
          case Kind::NonceChange:
            if (nonce.insert(e.address).second)
                r.nonces.push_back({e.address, e.prevNonce,
                                    overlay.nonce(e.address)});
            break;
          case Kind::CodeChange:
            if (code.insert(e.address).second)
                r.codes.push_back({e.address, e.prevCode,
                                   overlay.code(e.address)});
            break;
          case Kind::AccountCreated:
            if (created.insert(e.address).second)
                r.created.push_back(e.address);
            break;
        }
    }
    return r;
}

void
expectMatches(const WorldState &st, const char *step, int i)
{
    ASSERT_EQ(st.digest(), referenceDigest(st))
        << "after step " << i << " (" << step << ")";
}

void
runSequence(std::uint64_t seed, int steps)
{
    Rng rng(seed);
    WorldState st;
    std::vector<WorldState::Snapshot> snaps;

    for (int i = 0; i < steps; ++i) {
        const std::uint64_t op = rng.below(20);
        const char *step = "mutate";
        if (op < 10) {
            mutate(st, rng);
        } else if (op < 12) {
            step = "snapshot";
            snaps.push_back(st.snapshot());
        } else if (op < 14) {
            step = "revert";
            if (!snaps.empty()) {
                // Nested: revert to any open snapshot, dropping the
                // inner ones with it.
                std::size_t k = rng.below(snaps.size());
                st.revert(snaps[k]);
                snaps.resize(k);
            }
        } else if (op == 14) {
            step = "commit";
            st.commit();
            snaps.clear();
        } else if (op == 15) {
            step = "copy and diverge";
            WorldState copy = st;
            for (int k = 0; k < 4; ++k) {
                mutate(copy, rng);
                mutate(st, rng);
            }
            expectMatches(copy, "diverged copy", i);
            if (rng.chance(0.3))
                st = std::move(copy);
        } else if (op == 16) {
            step = "specApply from overlay";
            st.commit();
            snaps.clear();
            WorldState overlay;
            overlay.bindBase(&st);
            for (int k = 0; k < 6; ++k) {
                auto snap = overlay.snapshot();
                mutate(overlay, rng);
                mutate(overlay, rng);
                if (rng.chance(0.3))
                    overlay.revert(snap);
            }
            EXPECT_THROW(overlay.digest(), std::logic_error);
            specApply(deltasOf(overlay), st, kCoinbase);
        } else if (op == 17) {
            step = "rlp round trip";
            st.commit();
            snaps.clear();
            WorldState back = WorldState::fromRlp(st.toRlp());
            ASSERT_EQ(back.digest(), st.digest()) << "step " << i;
            if (rng.chance(0.5))
                st = std::move(back); // continue from a cold state
        }
        if (rng.chance(0.5))
            expectMatches(st, step, i);
    }
    expectMatches(st, "end", steps);
}

TEST(StateCommitment, CachedDigestMatchesReferenceOnRandomSequences)
{
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        runSequence(seed, 300);
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(StateCommitment, EmptyStateAndEmptyAccounts)
{
    WorldState st;
    EXPECT_EQ(st.digest(), referenceDigest(st));
    st.createAccount(U256(1));
    EXPECT_EQ(st.digest(), referenceDigest(st));
    // Storage that went back to empty commits like never-written
    // storage.
    st.setStorage(U256(2), U256(7), U256(9));
    const U256 with_slot = st.digest();
    st.setStorage(U256(2), U256(7), U256());
    EXPECT_NE(st.digest(), with_slot);
    WorldState fresh;
    fresh.createAccount(U256(1));
    fresh.createAccount(U256(2));
    EXPECT_EQ(st.digest(), fresh.digest());
}

TEST(StateCommitment, RevertRestoresTheEarlierDigest)
{
    WorldState st;
    st.setStorage(U256(5), U256(0x101), U256(3));
    st.setBalance(U256(6), U256(10));
    st.commit();
    const U256 before = st.digest();

    auto snap = st.snapshot();
    st.setStorage(U256(5), U256(0x201), U256(4)); // same bucket
    st.setStorage(U256(7), U256(1), U256(1));     // new account
    st.setNonce(U256(6), 3);
    EXPECT_NE(st.digest(), before);
    st.revert(snap);
    EXPECT_EQ(st.digest(), before);
    EXPECT_EQ(st.digest(), referenceDigest(st));
}

TEST(StateCommitment, DigestOnOverlayThrows)
{
    WorldState base;
    base.setBalance(U256(1), U256(1));
    WorldState overlay;
    overlay.bindBase(&base);
    EXPECT_THROW(overlay.digest(), std::logic_error);
    overlay.setBalance(U256(1), U256(2));
    EXPECT_THROW(overlay.digest(), std::logic_error);
    EXPECT_NO_THROW(base.digest());
}

} // namespace
} // namespace mtpu::evm
