#include "support/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace mtpu::support {

namespace {

/** Set while a pool worker (or a nested caller) runs job indices; a
 *  parallelFor issued from such a thread executes inline. */
thread_local bool tls_inside_pool = false;

} // namespace

unsigned
ThreadPool::hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("MTPU_THREADS")) {
        long v = std::strtol(env, nullptr, 10);
        if (v >= 1)
            return unsigned(v);
    }
    return std::min(hardwareThreads(), kDefaultCap);
}

unsigned
ThreadPool::resolveThreads(int threads)
{
    if (threads == 0)
        return defaultThreads();
    return unsigned(std::max(threads, 1));
}

std::unique_ptr<ThreadPool>
ThreadPool::forThreads(int threads)
{
    const unsigned resolved = resolveThreads(threads);
    return resolved > 1 ? std::make_unique<ThreadPool>(resolved) : nullptr;
}

ThreadPool::ThreadPool(unsigned threads) : parallelism_(threads)
{
    for (unsigned i = 1; i < parallelism_; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(m_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread &t : workers_)
        t.join();
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &fn)
{
    if (n == 0)
        return;
    if (parallelism_ <= 1 || n == 1 || tls_inside_pool) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // One job at a time; concurrent client calls queue up here.
    std::lock_guard<std::mutex> client(clientM_);

    Job job;
    job.fn = &fn;
    job.remaining = n;
    const std::size_t parts = std::min<std::size_t>(parallelism_, n);
    for (std::size_t p = 0; p < parts; ++p) {
        auto shard = std::make_unique<Shard>();
        shard->next = n * p / parts;
        shard->end = n * (p + 1) / parts;
        job.shards.push_back(std::move(shard));
    }

    {
        std::lock_guard<std::mutex> lock(m_);
        job_ = &job;
        ++epoch_;
    }
    wake_.notify_all();

    participate(job, 0); // the caller is participant 0

    std::unique_lock<std::mutex> lock(m_);
    done_.wait(lock, [&] { return job.remaining == 0 && active_ == 0; });
    job_ = nullptr;
    if (job.error)
        std::rethrow_exception(job.error);
}

void
ThreadPool::runAll(const std::vector<std::function<void()>> &tasks)
{
    parallelFor(tasks.size(), [&](std::size_t i) { tasks[i](); });
}

void
ThreadPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(m_);
            wake_.wait(lock, [&] { return stop_ || epoch_ != seen; });
            if (stop_)
                return;
            seen = epoch_;
            job = job_;
            if (!job)
                continue;
            ++active_;
        }
        participate(*job, self);
        {
            std::lock_guard<std::mutex> lock(m_);
            --active_;
        }
        done_.notify_one();
    }
}

void
ThreadPool::participate(Job &job, unsigned self)
{
    // Workers beyond the shard count (n < parallelism) still steal.
    const unsigned shard_count = unsigned(job.shards.size());
    const unsigned home = self < shard_count ? self : self % shard_count;

    tls_inside_pool = true;
    std::size_t idx;
    std::size_t executed = 0;
    bool poisoned = false;
    while (claim(job, home, idx)) {
        if (!poisoned) {
            try {
                (*job.fn)(idx);
            } catch (...) {
                std::lock_guard<std::mutex> lock(m_);
                if (!job.error)
                    job.error = std::current_exception();
                poisoned = true;
            }
        }
        // A poisoned participant keeps claiming (and discarding)
        // indices so the job still terminates promptly.
        ++executed;
    }
    tls_inside_pool = false;

    if (executed) {
        bool last = false;
        {
            std::lock_guard<std::mutex> lock(m_);
            job.remaining -= executed;
            last = job.remaining == 0;
        }
        if (last)
            done_.notify_all();
    }
}

bool
ThreadPool::claim(Job &job, unsigned self, std::size_t &idx)
{
    // Fast path: the front of our own shard.
    {
        Shard &own = *job.shards[self];
        std::lock_guard<std::mutex> lock(own.m);
        if (own.next < own.end) {
            idx = own.next++;
            return true;
        }
    }
    // Steal the back half of the fullest other shard.
    for (;;) {
        std::size_t best = SIZE_MAX, best_size = 0;
        for (std::size_t v = 0; v < job.shards.size(); ++v) {
            if (v == self)
                continue;
            Shard &s = *job.shards[v];
            std::lock_guard<std::mutex> lock(s.m);
            std::size_t size = s.end - s.next;
            if (size > best_size) {
                best_size = size;
                best = v;
            }
        }
        if (best == SIZE_MAX)
            return false; // nothing left anywhere
        Shard &victim = *job.shards[best];
        std::size_t lo = 0, hi = 0;
        {
            std::lock_guard<std::mutex> lock(victim.m);
            std::size_t size = victim.end - victim.next;
            if (size == 0)
                continue; // raced; rescan
            std::size_t take = (size + 1) / 2;
            hi = victim.end;
            lo = hi - take;
            victim.end = lo;
        }
        {
            Shard &own = *job.shards[self];
            std::lock_guard<std::mutex> lock(own.m);
            own.next = lo + 1;
            own.end = hi;
        }
        idx = lo;
        return true;
    }
}

} // namespace mtpu::support
