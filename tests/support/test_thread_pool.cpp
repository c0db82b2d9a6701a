/**
 * @file
 * Work-stealing ThreadPool tests: exactly-once index coverage, stealing
 * under skewed work, nested-call inlining, exception propagation,
 * shutdown/teardown (run under TSan via the sanitizer tree's
 * `ctest -L parallel`), the MTPU_THREADS / cap resolution of
 * defaultThreads(), and the thread-count rule of forThreads().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/thread_pool.hpp"

namespace mtpu::support {
namespace {

TEST(ThreadPool, CoversAllIndicesExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threads(), 4u);

    const std::size_t n = 10007; // prime, not a multiple of the shards
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(97, [&](std::size_t i) { sum += i; });
        ASSERT_EQ(sum.load(), std::size_t(97 * 96 / 2));
    }
}

TEST(ThreadPool, SkewedWorkStillCoversEverything)
{
    ThreadPool pool(4);
    const std::size_t n = 512;
    std::vector<std::atomic<int>> hits(n);
    // Front-loaded work: participant 0's shard is orders of magnitude
    // heavier, so the others must steal from it to finish.
    pool.parallelFor(n, [&](std::size_t i) {
        if (i < n / 4) {
            volatile std::uint64_t x = 0;
            for (int k = 0; k < 20000; ++k)
                x += std::uint64_t(k) * i;
        }
        ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NestedCallRunsInline)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(64);
    pool.parallelFor(8, [&](std::size_t outer) {
        // Must not deadlock: a parallelFor from inside a worker
        // degrades to a serial loop on the calling thread.
        pool.parallelFor(8, [&](std::size_t inner) {
            ++hits[outer * 8 + inner];
        });
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ZeroAndOneIndexJobs)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(1, [&](std::size_t i) {
        EXPECT_EQ(i, 0u);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(256,
                                  [&](std::size_t i) {
                                      if (i == 137)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);

    // The pool must stay usable after a failed job.
    std::atomic<std::size_t> sum{0};
    pool.parallelFor(100, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum.load(), std::size_t(100 * 99 / 2));
}

TEST(ThreadPool, RunAllExecutesEveryTask)
{
    ThreadPool pool(2);
    std::atomic<int> a{0}, b{0}, c{0};
    pool.runAll({
        [&] { a = 1; },
        [&] { b = 2; },
        [&] { c = 3; },
    });
    EXPECT_EQ(a.load(), 1);
    EXPECT_EQ(b.load(), 2);
    EXPECT_EQ(c.load(), 3);
}

TEST(ThreadPool, SingleThreadPoolRunsSerially)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::size_t sum = 0; // no atomics needed: everything is inline
    pool.parallelFor(1000, [&](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, std::size_t(1000 * 999 / 2));
}

TEST(ThreadPoolShutdown, IdlePoolDestructsCleanly)
{
    // Workers that never received a job must still join on destruction.
    for (int round = 0; round < 8; ++round)
        ThreadPool pool(4);
}

TEST(ThreadPoolShutdown, DestructionRightAfterWorkLosesNothing)
{
    // Tear the pool down immediately after parallelFor returns, while
    // workers are still winding down from the job epoch. Every index
    // must have run exactly once before the destructor finishes.
    const std::size_t n = 4096;
    for (int round = 0; round < 16; ++round) {
        std::vector<std::atomic<int>> hits(n);
        {
            ThreadPool pool(4);
            pool.parallelFor(n, [&](std::size_t i) { ++hits[i]; });
        } // destructor joins here
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1)
                << "round " << round << " index " << i;
    }
}

TEST(ThreadPoolShutdown, DestructionRightAfterRunAllLosesNothing)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(4);
        std::vector<std::function<void()>> tasks;
        for (int t = 0; t < 64; ++t)
            tasks.push_back([&ran] { ++ran; });
        pool.runAll(tasks);
    }
    EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolShutdown, ConstructDestroyChurn)
{
    // Rapid create/use/destroy cycles stress the startup/shutdown
    // handshake (epoch signalling, stop flag, join).
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 40; ++round) {
        ThreadPool pool(1 + round % 4);
        pool.parallelFor(64, [&](std::size_t) { ++total; });
    }
    EXPECT_EQ(total.load(), std::size_t(40 * 64));
}

TEST(ThreadPoolShutdown, OwningThreadCanDiffersFromUsingThread)
{
    // A pool constructed on one thread, driven from another, then
    // destroyed on the first: the join must not depend on which
    // thread ran the jobs.
    auto pool = std::make_unique<ThreadPool>(4);
    std::vector<std::atomic<int>> hits(1024);
    std::thread driver([&] {
        pool->parallelFor(hits.size(), [&](std::size_t i) { ++hits[i]; });
    });
    driver.join();
    pool.reset(); // destruction with fully drained, just-idle workers
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolShutdown, SurvivesExceptionThenDestructs)
{
    std::atomic<std::size_t> after{0};
    {
        ThreadPool pool(4);
        EXPECT_THROW(pool.parallelFor(128,
                                      [](std::size_t i) {
                                          if (i == 7)
                                              throw std::runtime_error(
                                                  "boom");
                                      }),
                     std::runtime_error);
        pool.parallelFor(128, [&](std::size_t) { ++after; });
    } // destruct directly after a failed + a clean job
    EXPECT_EQ(after.load(), 128u);
}

TEST(ThreadPool, DefaultThreadsRespectsEnvAndCap)
{
    const char *saved = std::getenv("MTPU_THREADS");
    std::string saved_copy = saved ? saved : "";

    ::setenv("MTPU_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3u);

    ::setenv("MTPU_THREADS", "0", 1); // invalid: falls back to auto
    unsigned auto_threads = ThreadPool::defaultThreads();
    EXPECT_GE(auto_threads, 1u);
    EXPECT_LE(auto_threads, ThreadPool::kDefaultCap);

    ::unsetenv("MTPU_THREADS");
    EXPECT_LE(ThreadPool::defaultThreads(), ThreadPool::kDefaultCap);

    if (saved)
        ::setenv("MTPU_THREADS", saved_copy.c_str(), 1);
}

/** The one thread-count rule: 0, 1, negative and N. */
TEST(ThreadPool, ForThreadsResolvesEveryCount)
{
    const char *saved = std::getenv("MTPU_THREADS");
    std::string saved_copy = saved ? saved : "";

    // 1 and every negative count mean the serial path: no pool.
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1u);
    EXPECT_EQ(ThreadPool::forThreads(1), nullptr);
    for (int negative : {-1, -4}) {
        EXPECT_EQ(ThreadPool::resolveThreads(negative), 1u) << negative;
        EXPECT_EQ(ThreadPool::forThreads(negative), nullptr) << negative;
    }

    // N > 1 is taken as given.
    EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
    std::unique_ptr<ThreadPool> three = ThreadPool::forThreads(3);
    ASSERT_NE(three, nullptr);
    EXPECT_EQ(three->threads(), 3u);

    // 0 resolves to defaultThreads(), which reads MTPU_THREADS.
    ::setenv("MTPU_THREADS", "2", 1);
    EXPECT_EQ(ThreadPool::resolveThreads(0), 2u);
    std::unique_ptr<ThreadPool> two = ThreadPool::forThreads(0);
    ASSERT_NE(two, nullptr);
    EXPECT_EQ(two->threads(), 2u);
    ::setenv("MTPU_THREADS", "1", 1);
    EXPECT_EQ(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::forThreads(0), nullptr);

    if (saved)
        ::setenv("MTPU_THREADS", saved_copy.c_str(), 1);
    else
        ::unsetenv("MTPU_THREADS");
}

} // namespace
} // namespace mtpu::support
