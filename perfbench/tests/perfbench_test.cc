/**
 * @file
 * Tests of the benchmark's own logic: the arrival schedule, the
 * percentile rule and the coverage arithmetic. Exits non-zero on the
 * first failed check. Run with `python3 perfbench/run.py --self-test`.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        failures++;
    }
}

std::vector<uint64_t>
arrivals(uint64_t seed, double rate, size_t n)
{
    PoissonSchedule s(seed, rate);
    std::vector<uint64_t> out;
    for (size_t i = 0; i < n; i++)
        out.push_back(s.next());
    return out;
}

void
scheduleIsDeterministicPerSeed()
{
    const auto a = arrivals(7, 20000.0, 100000);
    expect(a == arrivals(7, 20000.0, 100000),
           "same seed gives the same schedule");
    expect(a != arrivals(8, 20000.0, 100000),
           "another seed gives another schedule");
    bool increasing = true;
    for (size_t i = 1; i < a.size(); i++)
        increasing &= a[i] >= a[i - 1];
    expect(increasing, "arrival offsets never decrease");
    // 100k exponential gaps: the mean is within 1% of 1/rate with
    // overwhelming probability (standard error 0.32%).
    const double mean_gap = static_cast<double>(a.back()) / 100000.0;
    expect(std::fabs(mean_gap / 50000.0 - 1.0) < 0.01,
           "mean gap matches the offered rate");
    // Exponential gaps: about 1 - 1/e of them are below the mean.
    size_t below = 0;
    uint64_t prev = 0;
    for (uint64_t t : a) {
        below += (t - prev) < 50000;
        prev = t;
    }
    const double share = static_cast<double>(below) / 100000.0;
    expect(std::fabs(share - (1.0 - std::exp(-1.0))) < 0.01,
           "gaps are exponentially distributed");
}

void
percentileKeepsTenSamplesBeyond()
{
    std::vector<double> v(1000);
    for (size_t i = 0; i < v.size(); i++)
        v[i] = static_cast<double>(v.size() - i);  // 1000 .. 1
    double p = 0.0;
    expect(percentile(v, 0.99, p) && p == 990.0,
           "p99 of 1..1000 is 990 (10 samples beyond)");
    expect(percentile(v, 0.50, p) && p == 500.0, "p50 of 1..1000 is 500");

    std::vector<double> short_tail(999, 1.0);
    p = -1.0;
    expect(!percentile(short_tail, 0.99, p) && p == -1.0,
           "p99 of 999 samples has only 9 beyond and is refused");

    std::vector<double> tiny(19, 1.0);
    expect(!percentile(tiny, 0.50, p), "p50 of 19 samples is refused");
    std::vector<double> enough(20, 1.0);
    expect(percentile(enough, 0.50, p), "p50 of 20 samples is allowed");

    std::vector<double> empty;
    expect(!percentile(empty, 0.5, p), "empty input is refused");
}

void
medianOfOddAndEven()
{
    expect(median({3.0, 1.0, 2.0}) == 2.0, "median of three");
    expect(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of four");
    expect(median({}) == 0.0, "median of nothing is 0");
}

void
coverageArithmetic()
{
    const double stages[] = {10.0, 20.0, 30.0, 40.0};
    expect(coverage(stages, 100.0) == 1.0, "stages that tile cover 1");
    expect(coverage(stages, 125.0) == 0.8, "a 25-unit gap covers 0.8");
    expect(coverage(stages, 0.0) == 0.0, "no end-to-end time covers 0");
}

} // namespace

int
main()
{
    scheduleIsDeterministicPerSeed();
    percentileKeepsTenSamplesBeyond();
    medianOfOddAndEven();
    coverageArithmetic();
    if (failures == 0)
        std::printf("perfbench_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
