#include "stats.hpp"

#include <algorithm>

#include <sys/resource.h>

#include "support/thread_pool.hpp"

namespace perfbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tail(std::vector<double> samples)
{
    Tail t;
    t.samples = samples.size();
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    std::size_t n = samples.size();
    std::size_t rank = n > Tail::kTailBeyond ? n - Tail::kTailBeyond : n;
    t.value = samples[rank - 1];
    t.beyond = n - rank;
    t.percentile = 100.0 * double(rank) / double(n);
    return t;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports KiB
}

HostRecord
hostRecord()
{
    HostRecord h;
    h.hardwareThreads = mtpu::support::ThreadPool::hardwareThreads();
    h.compiler = PERFBENCH_COMPILER;
    h.buildType = PERFBENCH_BUILD_TYPE;
    h.release = h.buildType == "Release";
    return h;
}

} // namespace perfbench
