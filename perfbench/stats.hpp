/**
 * @file
 * Summary statistics shared by the benchmark driver and its
 * self-tests: the median, the tail rule, peak memory and the host
 * record every result carries.
 */

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the middle pair for even sizes; 0 empty). */
double median(std::vector<double> v);

/**
 * The highest percentile of @p samples that still has at least
 * kTailBeyond samples above it: the (n - kTailBeyond)-th smallest
 * sample. With fewer than kTailBeyond + 1 samples it falls back to the
 * maximum and reports how many samples lie beyond (fewer than
 * kTailBeyond).
 */
struct Tail
{
    static constexpr std::size_t kTailBeyond = 10;

    double value = 0.0;
    double percentile = 0.0; ///< rank of the value, in percent
    std::size_t samples = 0; ///< samples the tail was taken over
    std::size_t beyond = 0;  ///< samples strictly above the value's rank
};

Tail tail(std::vector<double> samples);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** What a result must carry so only like hosts are compared. */
struct HostRecord
{
    unsigned hardwareThreads = 0;
    std::string compiler;
    std::string buildType;
    bool release = false; ///< false flags the result as not comparable
};

HostRecord hostRecord();

} // namespace perfbench
