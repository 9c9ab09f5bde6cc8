/**
 * @file
 * Small statistics the benchmark reports with: the percentile rule,
 * medians, the span-coverage arithmetic and the open-loop arrival
 * schedule. Header-only so tests/perfbench_test.cc checks exactly the
 * code the workloads run.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hh"

namespace perfbench
{

/** Samples that must lie beyond a reported percentile. */
constexpr size_t kMinTailSamples = 10;

/**
 * Nearest-rank percentile q in (0, 1] of v (reordered in place).
 * Returns false, leaving out untouched, unless at least
 * kMinTailSamples samples rank above the reported one: a p99 needs
 * 1000 samples, a p50 needs 20.
 */
template <class T>
bool
percentile(std::vector<T> &v, double q, double &out)
{
    const size_t n = v.size();
    if (n == 0 || q <= 0.0 || q > 1.0)
        return false;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(n) - 1e-9));
    rank = std::max<size_t>(rank, 1);
    const size_t idx = rank - 1;
    if (n - 1 - idx < kMinTailSamples)
        return false;
    std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(idx),
                     v.end());
    out = static_cast<double>(v[idx]);
    return true;
}

/** Median of v (mean of the middle pair for even sizes); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Share of an end-to-end mean that the stage means explain. Stages
 * are consecutive, non-overlapping children of the end-to-end span,
 * so anything below 1 is time no stage covers.
 */
inline double
coverage(std::span<const double> stage_means, double e2e_mean)
{
    if (e2e_mean <= 0.0)
        return 0.0;
    double sum = 0.0;
    for (double m : stage_means)
        sum += m;
    return sum / e2e_mean;
}

/**
 * Poisson arrivals at a fixed rate: seeded exponential gaps, so the
 * same seed gives the same schedule. next() returns each arrival's
 * offset from the start, in ns.
 */
class PoissonSchedule
{
  public:
    PoissonSchedule(uint64_t seed, double rate_per_sec)
        : rng_(seed), meanGapNs_(1e9 / rate_per_sec)
    {
    }

    uint64_t
    next()
    {
        // 1 - uniform() is in (0, 1], so the log is finite.
        t_ += -std::log(1.0 - rng_.uniform()) * meanGapNs_;
        return static_cast<uint64_t>(t_);
    }

  private:
    astrea::Rng rng_;
    double meanGapNs_;
    double t_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
