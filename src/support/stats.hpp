/**
 * @file
 * Lightweight statistics helpers used by the timing models and benches:
 * scalar counters, running means, histograms, and a simple least-squares
 * line fit (the paper overlays fitted curves on Figs. 14/16).
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mtpu {

/** Running mean/min/max/count accumulator. */
class Accumulator
{
  public:
    void add(double v);

    double mean() const { return count_ ? sum_ / double(count_) : 0.0; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    std::uint64_t count() const { return count_; }

  private:
    double sum_ = 0, min_ = 0, max_ = 0;
    std::uint64_t count_ = 0;
};

/** Fixed-bucket histogram keyed by integer bucket index. */
class Histogram
{
  public:
    explicit Histogram(std::uint64_t bucket_width = 1)
        : bucketWidth_(bucket_width)
    {}

    void add(std::uint64_t value, std::uint64_t weight = 1);

    std::uint64_t total() const { return total_; }
    const std::map<std::uint64_t, std::uint64_t> &buckets() const
    {
        return buckets_;
    }

    /**
     * Nearest-rank percentile: the lowest bucket value such that at
     * least ceil(fraction * total) of the mass lies at or below it
     * (same rank convention as percentileSorted).
     */
    std::uint64_t percentile(double fraction) const;

  private:
    std::uint64_t bucketWidth_;
    std::uint64_t total_ = 0;
    std::map<std::uint64_t, std::uint64_t> buckets_;
};

/**
 * Nearest-rank percentile over an ascending-sorted sample: the value
 * at rank ceil(q * n) (1-based), i.e. the smallest sample such that at
 * least a fraction q of the mass is at or below it. q <= 0 returns the
 * minimum, q >= 1 the maximum, empty input 0. This is the single
 * percentile definition shared by the latency paths (SoakReport and
 * Histogram::percentile) — they previously hand-rolled subtly
 * different index formulas.
 */
template <typename T>
double
percentileSorted(const std::vector<T> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    if (q <= 0.0)
        return double(sorted.front());
    std::size_t rank = std::size_t(std::ceil(q * double(sorted.size())));
    if (rank < 1)
        rank = 1;
    if (rank > sorted.size())
        rank = sorted.size();
    return double(sorted[rank - 1]);
}

/** Least-squares linear fit y = a + b*x over sample pairs. */
struct LineFit
{
    double a = 0; ///< intercept
    double b = 0; ///< slope

    static LineFit fit(const std::vector<double> &x,
                       const std::vector<double> &y);

    double at(double x) const { return a + b * x; }
};

/** Format a double with fixed decimals (bench table printing). */
std::string fixed(double v, int decimals = 2);

} // namespace mtpu
