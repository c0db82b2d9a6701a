/**
 * @file
 * Deterministic cost counters of the state commitment (DESIGN.md §16):
 * evm.keccak_permutations, evm.digest_calls and
 * evm.digest_buckets_rehashed. On the 512-user TOP8 genesis, the
 * digest after one 128-tx block on a copy of the warmed genesis costs
 * at most 1/6 of the cold genesis digest in keccak permutations, and
 * every count repeats exactly from run to run.
 *
 * Why 1/6 and not less: the definition fixes a floor on any digest
 * after a block. The block dirties about 117 of 530 accounts, 10 of
 * them contracts, and about 200 storage buckets. The fold over all
 * (address || commitment) pairs costs 250 permutations, each dirty
 * contract's root over 256 bucket hashes costs 61, and a dirty bucket
 * of a contract holding thousands of slots costs about 8. Seed 1:
 * 2530 permutations against 17347 cold.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "evm/fast_interp.hpp"
#include "obs/metrics.hpp"
#include "workload/workload.hpp"

namespace mtpu {
namespace {

struct DigestCost
{
    std::uint64_t permutations = 0;
    std::uint64_t calls = 0;
    std::uint64_t buckets = 0;

    bool
    operator==(const DigestCost &o) const
    {
        return std::tie(permutations, calls, buckets)
            == std::tie(o.permutations, o.calls, o.buckets);
    }
};

/** Counter deltas over one digest() call. */
DigestCost
costOf(const evm::WorldState &st)
{
    obs::Registry &reg = obs::Registry::global();
    const obs::Snapshot before = reg.snapshot();
    st.digest();
    const obs::Snapshot after = reg.snapshot();
    auto delta = [&](const char *name) {
        return after.counter(name) - before.counter(name);
    };
    return {delta("evm.keccak_permutations"), delta("evm.digest_calls"),
            delta("evm.digest_buckets_rehashed")};
}

/** Cold genesis digest, then the digest after one block on a copy. */
std::pair<DigestCost, DigestCost>
coldAndWarm()
{
    workload::Generator gen(1, 512, /*threads=*/1);
    // Cold before generating: the consensus stage warms its pre-state.
    const DigestCost cold = costOf(gen.genesis());
    workload::BlockParams p;
    p.txCount = 128;
    p.depRatio = 0.3;
    p.erc20Share = -1.0;
    const workload::BlockRun block = gen.generateBlock(p);

    evm::WorldState st = gen.genesis();
    evm::FastInterpreter interp;
    for (const workload::TxRecord &rec : block.txs)
        interp.applyTransaction(st, block.header, rec.tx);
    return {cold, costOf(st)};
}

TEST(CommitCost, WarmBlockDigestCostsAtMostASixthOfCold)
{
#if !MTPU_OBS_ENABLED
    GTEST_SKIP() << "built with -DMTPU_OBS=OFF: the counters compile "
                    "away";
#endif
    obs::Registry &reg = obs::Registry::global();
    const bool was_enabled = reg.enabled();
    reg.enable(true);
    const auto first = coldAndWarm();
    const auto second = coldAndWarm();
    reg.enable(was_enabled);

    const DigestCost &cold = first.first;
    const DigestCost &warm = first.second;
    EXPECT_EQ(cold.calls, 1u);
    EXPECT_EQ(warm.calls, 1u);
    EXPECT_GT(cold.buckets, warm.buckets);
    EXPECT_GT(warm.permutations, 0u);
    EXPECT_LE(warm.permutations * 6, cold.permutations)
        << "warm " << warm.permutations << " vs cold "
        << cold.permutations;

    // Counts, unlike times, repeat exactly.
    EXPECT_TRUE(second.first == cold);
    EXPECT_TRUE(second.second == warm);

    // A second digest of an unchanged state is a cached read.
    evm::WorldState st;
    st.setBalance(U256(1), U256(2));
    st.digest();
    reg.enable(true);
    const DigestCost again = costOf(st);
    reg.enable(was_enabled);
    EXPECT_EQ(again.calls, 1u);
    EXPECT_EQ(again.permutations, 0u);
    EXPECT_EQ(again.buckets, 0u);
}

} // namespace
} // namespace mtpu
