/**
 * @file
 * Shared pieces of the end-to-end benchmark: the clock, the metric
 * sheet every workload fills, presampled shot pools with reference
 * verdicts, setup timing, the in-memory span recorder and the timing
 * wrapper placed around decoders in traced runs.
 *
 * Every layer is measured from outside, by timing the benchmark's own
 * calls into astrea_core's public functions; nothing here changes how
 * the library runs.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "harness/memory_experiment.hh"

namespace perfbench
{

inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Named metrics with units, printed in insertion order. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        entries_.push_back({name, value, unit});
    }

    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::vector<Entry> entries_;
};

/** What one workload run reports besides its metrics. */
struct RunTotals
{
    uint64_t attempted = 0;
    /** Operations whose outcome was wrong or missing. */
    uint64_t failed = 0;
    /** False when a check failed or the run was invalid. */
    bool correct = true;
    std::vector<std::string> problems;

    void
    fail(const std::string &why)
    {
        correct = false;
        problems.push_back(why);
    }
};

/** A decoder's answer for one shot, as compared across paths. */
struct Verdict
{
    uint64_t obsMask = 0;
    bool gaveUp = false;

    bool
    operator==(const Verdict &o) const
    {
        return obsMask == o.obsMask && gaveUp == o.gaveUp;
    }
};

/** Presampled shots: defect lists plus each shot's actual flips. */
struct ShotPool
{
    std::vector<uint32_t> defects;
    std::vector<uint32_t> offsets{0};
    std::vector<uint64_t> actual;

    size_t size() const { return actual.size(); }

    std::span<const uint32_t>
    shot(size_t i) const
    {
        return {defects.data() + offsets[i], offsets[i + 1] - offsets[i]};
    }

    size_t hw(size_t i) const { return offsets[i + 1] - offsets[i]; }
};

/**
 * Sample n shots from ctx's sampler. Chunk c of the pool draws from
 * Rng(seed).split(c), so the pool depends only on (seed, n), never on
 * the thread count. If sample_ns is set it receives the sampler's
 * mean time per shot (thread time, sampler call only).
 */
ShotPool samplePool(const astrea::ExperimentContext &ctx, size_t n,
                    uint64_t seed, unsigned threads,
                    double *sample_ns = nullptr);

/**
 * Decode pool shots [first, first + count) in `batch`-shot decodeBatch
 * calls with one decoder per thread. Returns the verdicts in pool
 * order; busy_ns (if set) receives the summed time inside decodeBatch.
 */
std::vector<Verdict> decodePool(const astrea::ExperimentContext &ctx,
                                const astrea::DecoderFactory &factory,
                                const ShotPool &pool, size_t first,
                                size_t count, size_t batch,
                                unsigned threads,
                                uint64_t *busy_ns = nullptr);

/** Run body(i) for i in [0, n) over up to `threads` threads. */
void parallelIndex(size_t n, unsigned threads,
                   const std::function<void(size_t)> &body);

/**
 * Median wall time of ExperimentContext constructions, repeated at
 * least min_reps times and until min_seconds have passed; the last
 * context built is returned through ctx_out.
 */
double timeContextSetup(const astrea::ExperimentConfig &cfg, int min_reps,
                        double min_seconds,
                        std::shared_ptr<const astrea::ExperimentContext>
                            &ctx_out);

/**
 * Moves the calling thread round the CPUs it may run on, one step per
 * next() starting from the first_step-th CPU, and restores its
 * original CPU set when destroyed. A single-threaded loop that calls
 * next() every window samples every CPU of a shared host instead of
 * the one the scheduler happened to pick, whose speed can differ by
 * tens of percent from run to run.
 */
class CpuRotation
{
  public:
    explicit CpuRotation(size_t first_step = 0);
    ~CpuRotation();
    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void next();

  private:
    std::vector<int> cpus_;
    size_t at_ = 0;
    bool restore_ = false;
    cpu_set_t original_{};
};

/** Process peak resident set size in MiB. */
double peakRssMb();

/** One JSON object describing the host and build. */
std::string hostJson();

/** One span: a timed interval with its parent (0 = root). */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    const char *name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/**
 * In-memory span store for traced runs. Spans are kept until the run
 * ends and then written in one go, so recording costs a vector append;
 * past `capacity` spans are counted but dropped.
 */
class SpanRecorder
{
  public:
    explicit SpanRecorder(size_t capacity) { spans_.reserve(capacity); }

    uint64_t
    record(const char *name, uint64_t parent, uint64_t start_ns,
           uint64_t end_ns)
    {
        std::lock_guard<std::mutex> lock(mu_);
        const uint64_t id = ++nextId_;
        if (spans_.size() < spans_.capacity())
            spans_.push_back({id, parent, name, start_ns, end_ns});
        else
            dropped_++;
        return id;
    }

    /** Write one JSON object per line; false if the file failed. */
    bool writeJsonl(const std::string &path,
                    const std::string &header_json) const;

    size_t size() const { return spans_.size(); }

  private:
    std::mutex mu_;
    std::vector<Span> spans_;
    uint64_t nextId_ = 0;
    uint64_t dropped_ = 0;
};

/** Decode time accumulated by the decoders timedFactory() makes. */
struct DecodeClock
{
    std::atomic<uint64_t> busyNs{0};
};

/** The interval of the last decodeBatch on this thread. */
struct LastDecode
{
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};
LastDecode &lastDecodeOnThisThread();

/**
 * Wrap a factory so each decoder it makes times its decodeBatch and
 * decodeInto calls into `clock` and lastDecodeOnThisThread().
 */
astrea::DecoderFactory timedFactory(astrea::DecoderFactory inner,
                                    std::shared_ptr<DecodeClock> clock);

/** The workload-independent inputs most runs share. */
struct Bench
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string traceDir;
};

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
