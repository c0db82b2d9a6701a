/**
 * @file
 * Unit tests of the functional tier's decoded-program LRU
 * (evm/decode.hpp) and the journaled codehash caching on Account:
 * hit/miss/evict behavior, observability counters, and the
 * invalidation rule on code mutation. Also checks that a fast-tier
 * speculation captures what a reference-tier one does.
 */

#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <vector>

#include "contracts/contracts.hpp"
#include "evm/decode.hpp"
#include "evm/speculative.hpp"
#include "obs/metrics.hpp"
#include "support/keccak.hpp"
#include "workload/workload.hpp"

namespace mtpu::evm {
namespace {

std::uint64_t
counterValue(const char *name)
{
    obs::Snapshot snap = obs::Registry::global().snapshot();
    for (const auto &c : snap.counters) {
        if (c.name == name)
            return c.value;
    }
    return 0;
}

/**
 * Counter assertions: -DMTPU_OBS=OFF compiles the counters away, so
 * such a build checks only the behaviour around them.
 */
#if MTPU_OBS_ENABLED
#define EXPECT_COUNTER(name, expected)                                    \
    EXPECT_EQ(counterValue(name), (expected))
#else
#define EXPECT_COUNTER(name, expected) (void)(expected)
#endif

TEST(DecodeCacheTest, HitMissAndSharing)
{
    obs::Registry::global().enable(true);
    DecodeCache cache(8);
    Bytes code = {std::uint8_t(Op::PUSH1), 0x2a, std::uint8_t(Op::POP),
                  std::uint8_t(Op::STOP)};
    U256 hash = keccak256Word(code);

    std::uint64_t miss0 = counterValue("evm.decode_cache.miss");
    std::uint64_t hit0 = counterValue("evm.decode_cache.hit");

    auto p1 = cache.get(hash, code);
    auto p2 = cache.get(hash, code);
    EXPECT_EQ(p1.get(), p2.get()); // same shared program
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_COUNTER("evm.decode_cache.miss", miss0 + 1);
    EXPECT_COUNTER("evm.decode_cache.hit", hit0 + 1);
}

TEST(DecodeCacheTest, LruEviction)
{
    obs::Registry::global().enable(true);
    DecodeCache cache(2);
    std::uint64_t evict0 = counterValue("evm.decode_cache.evict");

    for (std::uint8_t i = 0; i < 3; ++i) {
        Bytes code = {std::uint8_t(Op::PUSH1), i, std::uint8_t(Op::STOP)};
        cache.get(keccak256Word(code), code);
    }
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_COUNTER("evm.decode_cache.evict", evict0 + 1);

    // The oldest entry was evicted: fetching it again is a miss; the
    // newest is still resident.
    Bytes oldest = {std::uint8_t(Op::PUSH1), 0, std::uint8_t(Op::STOP)};
    std::uint64_t miss0 = counterValue("evm.decode_cache.miss");
    cache.get(keccak256Word(oldest), oldest);
    EXPECT_COUNTER("evm.decode_cache.miss", miss0 + 1);
}

TEST(DecodeCacheTest, ConcurrentMissesOfOneCodehashCountOneMiss)
{
    // N threads released together all miss one fresh codehash and
    // decode it outside the lock; one inserts, the rest are served the
    // resident copy. The counters must read as N serial lookups do.
    obs::Registry::global().enable(true);
    constexpr int kThreads = 8;
    DecodeCache cache(8);
    Bytes code;
    for (int i = 0; i < 2048; ++i) {
        code.push_back(std::uint8_t(Op::PUSH1));
        code.push_back(std::uint8_t(i));
        code.push_back(std::uint8_t(Op::POP));
    }
    code.push_back(std::uint8_t(Op::STOP));
    const U256 hash = keccak256Word(code);

    const std::uint64_t miss0 = counterValue("evm.decode_cache.miss");
    const std::uint64_t hit0 = counterValue("evm.decode_cache.hit");
    std::vector<const DecodedProgram *> got(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            got[std::size_t(t)] = cache.get(hash, code).get();
        });
    }
    for (std::thread &th : threads)
        th.join();

    for (const DecodedProgram *p : got)
        EXPECT_EQ(p, got[0]); // every thread holds the resident program
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_COUNTER("evm.decode_cache.miss", miss0 + 1);
    EXPECT_COUNTER("evm.decode_cache.hit", hit0 + kThreads - 1);
}

TEST(DecodeProgramTest, SegmentsAndJumpTargets)
{
    // PUSH1 5 JUMP JUMPDEST(3) PUSH1 1 ADD STOP — the JUMPDEST at
    // offset 3 must map to a BeginBlock whose fused run covers the
    // following pure ops.
    Bytes code = {std::uint8_t(Op::PUSH1), 0x03, std::uint8_t(Op::JUMP),
                  std::uint8_t(Op::JUMPDEST), std::uint8_t(Op::PUSH1),
                  0x01, std::uint8_t(Op::ADD), std::uint8_t(Op::STOP)};
    auto prog = decodeProgram(code);
    ASSERT_EQ(prog->jumpTarget.size(), code.size());
    EXPECT_GE(prog->jumpTarget[3], 0);
    EXPECT_EQ(prog->jumpTarget[0], -1);
    EXPECT_EQ(prog->jumpTarget[4], -1);
    const DecodedInstr &m =
        prog->instrs[std::size_t(prog->jumpTarget[3])];
    EXPECT_EQ(m.op, FOp::BeginBlock);
    EXPECT_GT(m.segGas, 0u);
}

TEST(CodeHashJournal, MutationAndRevertKeepHashConsistent)
{
    // Satellite: the cached per-account codehash must track every code
    // mutation — including journal rollback, which restores the saved
    // hash rather than rehashing.
    WorldState state;
    Address addr = U256(0xabc);
    Bytes codeA = {0x60, 0x01, 0x00};
    Bytes codeB = {0x60, 0x02, 0x02, 0x00};

    state.createAccount(addr);
    state.setCode(addr, codeA);
    state.commit();
    EXPECT_EQ(state.codeHash(addr), keccak256Word(codeA));

    auto s0 = state.snapshot();
    state.setCode(addr, codeB);
    EXPECT_EQ(state.codeHash(addr), keccak256Word(codeB));

    auto s1 = state.snapshot();
    state.setCode(addr, codeA);
    EXPECT_EQ(state.codeHash(addr), keccak256Word(codeA));
    state.revert(s1);
    EXPECT_EQ(state.codeHash(addr), keccak256Word(codeB));
    EXPECT_EQ(state.code(addr), codeB);

    state.revert(s0);
    EXPECT_EQ(state.codeHash(addr), keccak256Word(codeA));
    EXPECT_EQ(state.code(addr), codeA);
}

struct SpeculateFixture : ::testing::Test
{
    workload::Generator gen{42, 64};
    BlockHeader header;

    SpeculateFixture()
    {
        header.height = 1;
        header.timestamp = 1700000000;
        header.coinbase = U256(0xc01bba5e);
    }

    Transaction
    transfer(int sender, int recipient, std::uint64_t amount)
    {
        return gen.singleCall("TetherUSD", "transfer",
                              {contracts::userAddress(recipient),
                               U256(amount)},
                              U256(), sender)
            .tx;
    }
};

TEST_F(SpeculateFixture, FastTierSpeculationMatchesCycleTier)
{
    Transaction tx = transfer(0, 1, 5);
    SpecResult cycle = speculate(gen.genesis(), header, tx, SpecOptions{});

    SpecOptions opts;
    opts.fastTier = true;
    SpecResult fast = speculate(gen.genesis(), header, tx, opts);

    EXPECT_EQ(fast.receipt.toRlp(), cycle.receipt.toRlp());
    EXPECT_EQ(fast.storage.size(), cycle.storage.size());
    EXPECT_EQ(fast.balances.size(), cycle.balances.size());
    EXPECT_EQ(fast.access.reads.size(), cycle.access.reads.size());
}

} // namespace
} // namespace mtpu::evm
