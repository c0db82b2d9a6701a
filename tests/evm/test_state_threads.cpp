/**
 * @file
 * Thread rule of the state commitment cache (DESIGN.md §16): digest()
 * fills mutable caches, so a state shared by several threads is warmed
 * once at a single-threaded point; after that, pool threads may copy
 * it and digest their own copies concurrently. Runs in the `parallel`
 * suite, so the TSan tree checks it for races.
 */

#include <gtest/gtest.h>

#include "evm/state.hpp"
#include "reference_digest.hpp"
#include "support/thread_pool.hpp"
#include "workload/workload.hpp"

namespace mtpu::evm {
namespace {

constexpr std::size_t kTasks = 16;

/** Task @p i's private edit: storage in every TOP8 contract plus one
 *  user balance. */
void
edit(WorldState &st, const workload::Generator &gen, std::size_t i)
{
    int k = 0;
    for (const contracts::ContractSpec &spec : gen.contracts().top8())
        st.setStorage(spec.address, keccak256Pair(U256(i), U256(++k)),
                      U256(i + 1));
    st.setBalance(gen.users()[i % gen.users().size()], U256(i));
    st.commit();
}

TEST(StateCommitmentThreads, PoolThreadsCopyAndDigestAWarmedBase)
{
    workload::Generator gen(7, 128, 1);
    const WorldState &base = gen.genesis();
    const U256 base_digest = base.digest(); // the single-threaded warm

    std::vector<U256> want(kTasks);
    for (std::size_t i = 0; i < kTasks; ++i) {
        WorldState st = base;
        edit(st, gen, i);
        want[i] = testing::referenceDigest(st);
    }

    support::ThreadPool pool(4);
    std::vector<U256> got(kTasks), untouched(kTasks);
    pool.parallelFor(kTasks, [&](std::size_t i) {
        WorldState st = base;
        untouched[i] = st.digest(); // a cached read of the copy
        edit(st, gen, i);
        got[i] = st.digest();
    });

    for (std::size_t i = 0; i < kTasks; ++i) {
        EXPECT_EQ(got[i], want[i]) << "task " << i;
        EXPECT_EQ(untouched[i], base_digest) << "task " << i;
    }
    EXPECT_EQ(base.digest(), base_digest);
    EXPECT_EQ(base_digest, testing::referenceDigest(base));
}

} // namespace
} // namespace mtpu::evm
