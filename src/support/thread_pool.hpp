/**
 * @file
 * Work-stealing thread pool for host-parallel execution backends.
 *
 * The pool runs *index-space* jobs: parallelFor(n, fn) splits [0, n)
 * into one contiguous shard per participant (the calling thread plus
 * the worker threads); each participant drains its own shard from the
 * front and, when empty, steals the back half of the fullest remaining
 * shard. The caller always participates, so a pool constructed with
 * one thread (or a call made from inside a worker) degrades to a plain
 * serial loop — there is no code path where work waits on a thread
 * that does not exist.
 *
 * Determinism contract: the pool guarantees every index is executed
 * exactly once, but in an unspecified order on unspecified threads.
 * Callers that need deterministic results must make tasks independent
 * (e.g. write only to slot i), which is how every MTPU phase-1
 * pre-execution uses it.
 */

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mtpu::support {

class ThreadPool
{
  public:
    /**
     * @param threads total parallelism including the calling thread;
     *        a pool of @p threads spawns threads-1 workers. Configured
     *        counts go through forThreads().
     */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Total parallelism (workers + the participating caller). */
    unsigned threads() const { return parallelism_; }

    /**
     * Execute fn(i) for every i in [0, n), blocking until all are
     * done. Exceptions thrown by @p fn are rethrown in the caller
     * (first one wins; remaining indices may be skipped). Re-entrant
     * calls from inside a worker run inline, serially.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &fn);

    /** Run a batch of independent tasks to completion (parallelFor
     *  over the vector). */
    void runAll(const std::vector<std::function<void()>> &tasks);

    /**
     * Default pool size: the MTPU_THREADS environment variable when
     * set (>= 1), otherwise hardware concurrency capped at
     * kDefaultCap — the cap keeps `ctest -j` runs, which already
     * multiply processes by test count, from oversubscribing the
     * machine with per-test pools.
     */
    static unsigned defaultThreads();

    /** The rule for a configured host thread count: 0 resolves to
     *  defaultThreads(), a negative count to 1, others to themselves. */
    static unsigned resolveThreads(int threads);

    /** A pool of resolveThreads(@p threads), or null (the serial
     *  path) when that is 1. */
    static std::unique_ptr<ThreadPool> forThreads(int threads);

    /** Hardware concurrency, never 0. */
    static unsigned hardwareThreads();

    /** Default cap applied when MTPU_THREADS is unset. */
    static constexpr unsigned kDefaultCap = 8;

  private:
    /** One participant's contiguous slice of the index space. */
    struct Shard
    {
        std::mutex m;
        std::size_t next = 0; ///< first unclaimed index
        std::size_t end = 0;  ///< one past the last unclaimed index
    };

    struct Job
    {
        const std::function<void(std::size_t)> *fn = nullptr;
        std::vector<std::unique_ptr<Shard>> shards;
        std::size_t remaining = 0; ///< indices not yet executed (under m_)
        std::exception_ptr error;  ///< first exception thrown by fn
    };

    void workerLoop(unsigned self);
    void participate(Job &job, unsigned self);
    /** Claim one index: own shard first, then steal. @return false
     *  when the whole index space is exhausted. */
    bool claim(Job &job, unsigned self, std::size_t &idx);

    unsigned parallelism_;
    std::vector<std::thread> workers_;

    std::mutex m_;
    std::condition_variable wake_;  ///< signals workers: new job / stop
    std::condition_variable done_;  ///< signals caller: job finished
    Job *job_ = nullptr;            ///< active job (under m_)
    std::uint64_t epoch_ = 0;       ///< bumped per job, wakes workers
    unsigned active_ = 0;           ///< workers inside the active job
    bool stop_ = false;

    std::mutex clientM_; ///< serializes concurrent parallelFor callers
};

} // namespace mtpu::support
