#include "common.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <thread>

#include "astrea/simd_kernel.hh"
#include "stats.hh"

using namespace astrea;

namespace perfbench
{

namespace
{

/** Shots per sampling chunk (each chunk has its own RNG stream). */
constexpr size_t kSampleChunk = 16384;

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos) {
                size_t b = colon + 1;
                while (b < line.size() && line[b] == ' ')
                    b++;
                return line.substr(b);
            }
        }
    }
    return "unknown";
}

/** Decoder wrapper that times every call into its inner decoder. */
class TimedDecoder : public Decoder
{
  public:
    TimedDecoder(std::unique_ptr<Decoder> inner,
                 std::shared_ptr<DecodeClock> clock)
        : inner_(std::move(inner)), clock_(std::move(clock))
    {
    }

    void
    decodeInto(std::span<const uint32_t> defects, DecodeResult &out,
               DecodeScratch &scratch) override
    {
        const uint64_t t0 = nowNs();
        inner_->decodeInto(defects, out, scratch);
        note(t0, nowNs());
    }

    void
    decodeBatch(const SyndromeBatch &batch,
                std::vector<DecodeResult> &results,
                DecodeScratch &scratch) override
    {
        const uint64_t t0 = nowNs();
        inner_->decodeBatch(batch, results, scratch);
        note(t0, nowNs());
    }

    std::string name() const override { return inner_->name(); }

    void
    describeConfig(telemetry::JsonWriter &w) const override
    {
        inner_->describeConfig(w);
    }

  private:
    void
    note(uint64_t t0, uint64_t t1)
    {
        LastDecode &last = lastDecodeOnThisThread();
        last.startNs = t0;
        last.endNs = t1;
        clock_->busyNs.fetch_add(t1 - t0, std::memory_order_relaxed);
    }

    std::unique_ptr<Decoder> inner_;
    std::shared_ptr<DecodeClock> clock_;
};

} // namespace

void
parallelIndex(size_t n, unsigned threads,
              const std::function<void(size_t)> &body)
{
    threads = std::max(1u, std::min<unsigned>(
                               threads, static_cast<unsigned>(n)));
    std::atomic<size_t> next{0};
    auto worker = [&] {
        for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
            body(i);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; t++)
        pool.emplace_back(worker);
    worker();
    for (auto &t : pool)
        t.join();
}

ShotPool
samplePool(const ExperimentContext &ctx, size_t n, uint64_t seed,
           unsigned threads, double *sample_ns)
{
    const size_t chunks = (n + kSampleChunk - 1) / kSampleChunk;
    std::vector<ShotPool> parts(chunks);
    std::atomic<uint64_t> sample_time{0};
    const Rng root(seed);
    parallelIndex(chunks, threads, [&](size_t c) {
        Rng rng = root.split(c);
        ShotPool &part = parts[c];
        const size_t count = std::min(kSampleChunk, n - c * kSampleChunk);
        part.actual.reserve(count);
        BitVec dets, obs;
        std::vector<uint32_t> idx;
        uint64_t busy = 0;
        for (size_t i = 0; i < count; i++) {
            const uint64_t t0 = nowNs();
            ctx.sampler().sample(rng, dets, obs);
            busy += nowNs() - t0;
            dets.onesIndicesInto(idx);
            part.defects.insert(part.defects.end(), idx.begin(),
                                idx.end());
            part.offsets.push_back(
                static_cast<uint32_t>(part.defects.size()));
            obs.onesIndicesInto(idx);
            uint64_t actual = 0;
            for (uint32_t o : idx)
                actual |= 1ull << o;
            part.actual.push_back(actual);
        }
        sample_time.fetch_add(busy);
    });

    ShotPool pool;
    pool.actual.reserve(n);
    pool.offsets.reserve(n + 1);
    for (const ShotPool &part : parts) {
        const uint32_t base = static_cast<uint32_t>(pool.defects.size());
        pool.defects.insert(pool.defects.end(), part.defects.begin(),
                            part.defects.end());
        for (size_t i = 1; i < part.offsets.size(); i++)
            pool.offsets.push_back(base + part.offsets[i]);
        pool.actual.insert(pool.actual.end(), part.actual.begin(),
                           part.actual.end());
    }
    if (sample_ns != nullptr)
        *sample_ns = n ? static_cast<double>(sample_time.load()) /
                             static_cast<double>(n)
                       : 0.0;
    return pool;
}

std::vector<Verdict>
decodePool(const ExperimentContext &ctx, const DecoderFactory &factory,
           const ShotPool &pool, size_t first, size_t count, size_t batch,
           unsigned threads, uint64_t *busy_ns)
{
    std::vector<Verdict> out(count);
    const size_t per_task = batch * 64;
    const size_t tasks = (count + per_task - 1) / per_task;
    std::atomic<uint64_t> busy{0};
    // Worker w makes its own decoder and takes every workers-th task.
    const unsigned workers = std::max(
        1u, std::min<unsigned>(threads, static_cast<unsigned>(tasks)));
    parallelIndex(workers, workers, [&](size_t me) {
        auto dec = factory(ctx);
        SyndromeBatch sb;
        std::vector<DecodeResult> results;
        DecodeScratch scratch;
        uint64_t local_busy = 0;
        for (size_t t = me; t < tasks; t += workers) {
            const size_t end = std::min(count, (t + 1) * per_task);
            for (size_t b = t * per_task; b < end; b += batch) {
                const size_t e = std::min(end, b + batch);
                sb.clear();
                for (size_t i = b; i < e; i++)
                    sb.add(pool.shot(first + i));
                const uint64_t t0 = nowNs();
                dec->decodeBatch(sb, results, scratch);
                local_busy += nowNs() - t0;
                for (size_t i = b; i < e; i++)
                    out[i] = {results[i - b].obsMask,
                              results[i - b].gaveUp};
            }
        }
        busy.fetch_add(local_busy);
    });
    if (busy_ns != nullptr)
        *busy_ns = busy.load();
    return out;
}

double
timeContextSetup(const ExperimentConfig &cfg, int min_reps,
                 double min_seconds,
                 std::shared_ptr<const ExperimentContext> &ctx_out)
{
    std::vector<double> secs;
    CpuRotation cpus;
    const uint64_t start = nowNs();
    while (static_cast<int>(secs.size()) < min_reps ||
           static_cast<double>(nowNs() - start) / 1e9 < min_seconds) {
        cpus.next();
        ctx_out.reset();
        const uint64_t t0 = nowNs();
        ctx_out = std::make_shared<const ExperimentContext>(cfg);
        secs.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }
    return median(secs);
}

CpuRotation::CpuRotation(size_t first_step) : at_(first_step)
{
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
        return;
    restore_ = true;
    for (int c = 0; c < CPU_SETSIZE; c++)
        if (CPU_ISSET(c, &original_))
            cpus_.push_back(c);
}

CpuRotation::~CpuRotation()
{
    if (restore_)
        sched_setaffinity(0, sizeof(original_), &original_);
}

void
CpuRotation::next()
{
    if (cpus_.size() < 2)
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[at_++ % cpus_.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string
hostJson()
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"nproc\": %ld, \"cpu_model\": \"%s\", \"kernel\": \"%s\", "
        "\"avx2\": %s, \"avx512\": %s, \"build_type\": \"%s\"}",
        sysconf(_SC_NPROCESSORS_ONLN), jsonEscape(cpuModel()).c_str(),
        kernelKindName(activeKernelKind()),
        cpuHasAvx2() ? "true" : "false",
        cpuHasAvx512() ? "true" : "false", PERFBENCH_BUILD_TYPE);
    return buf;
}

bool
SpanRecorder::writeJsonl(const std::string &path,
                         const std::string &header_json) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "%s\n", header_json.c_str());
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "{\"id\": %llu, \"parent\": %llu, \"name\": \"%s\", "
                     "\"start_ns\": %llu, \"end_ns\": %llu}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.name,
                     static_cast<unsigned long long>(s.startNs),
                     static_cast<unsigned long long>(s.endNs));
    }
    if (dropped_ > 0)
        std::fprintf(f, "{\"dropped_spans\": %llu}\n",
                     static_cast<unsigned long long>(dropped_));
    return std::fclose(f) == 0;
}

LastDecode &
lastDecodeOnThisThread()
{
    thread_local LastDecode last;
    return last;
}

DecoderFactory
timedFactory(DecoderFactory inner, std::shared_ptr<DecodeClock> clock)
{
    return [inner = std::move(inner),
            clock = std::move(clock)](const ExperimentContext &ctx) {
        return std::unique_ptr<Decoder>(
            std::make_unique<TimedDecoder>(inner(ctx), clock));
    };
}

} // namespace perfbench

