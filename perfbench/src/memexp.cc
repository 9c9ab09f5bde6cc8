/**
 * @file
 * The memory-experiment workload: runMemoryExperiment, the research
 * use (estimating a logical error rate), where the sampler and the
 * harness's per-shot loop dominate and decoding is light.
 */

#include <cstdio>

#include "stats.hh"
#include "workloads.hh"

using namespace astrea;

namespace perfbench
{

namespace
{

/** Shots per runMemoryExperiment call. */
constexpr uint64_t kChunkShots = uint64_t{1} << 18;

/**
 * Recorded outcome of runMemoryExperiment(d = 7, p = 1e-3, astrea,
 * kCalibrationShots shots, seed kCalibrationSeed, 2 threads). Any
 * change to sampling, decoding or the experiment loop that alters a
 * single verdict moves these counts.
 */
constexpr uint64_t kCalibrationSeed = 11;
constexpr uint64_t kCalibrationShots = uint64_t{1} << 20;
constexpr uint64_t kCalibrationErrors = 782;
constexpr uint64_t kCalibrationGaveUps = 2619;

} // namespace

MemexpResult
runMemexp(const ExperimentContext &ctx, const DecoderFactory &factory,
          double seconds, uint64_t seed, unsigned threads, bool traced,
          SpanRecorder *spans, SliceTimer *between_chunks)
{
    MemexpResult r;
    auto clock = std::make_shared<DecodeClock>();
    const DecoderFactory f = traced ? timedFactory(factory, clock) : factory;
    const uint64_t start = nowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    // Chunk i uses its own seed, so the counts depend only on the seed
    // and on how many chunks fit in the window.
    for (uint64_t i = 0; r.shots == 0 || nowNs() < end; i++) {
        const uint64_t c0 = nowNs();
        const ExperimentResult er = runMemoryExperiment(
            ctx, f, kChunkShots, seed * 0x9E3779B97F4A7C15ull + i, threads);
        const uint64_t c1 = nowNs();
        if (spans != nullptr)
            spans->record("harness.memexp_chunk", 0, c0, c1);
        const double wall = static_cast<double>(c1 - c0) / 1e9;
        r.chunkRates.push_back(
            static_cast<double>(er.logicalErrors.trials) / wall);
        r.chunkGoodRates.push_back(
            static_cast<double>(er.logicalErrors.trials - er.gaveUps) /
            wall);
        r.shots += er.logicalErrors.trials;
        r.errors += er.logicalErrors.successes;
        r.gaveUps += er.gaveUps;
        if (between_chunks != nullptr)
            between_chunks->step();
    }
    r.wallSeconds = static_cast<double>(nowNs() - start) / 1e9;
    if (traced && r.shots > 0)
        r.decodeNsPerShot = static_cast<double>(clock->busyNs.load()) /
                            static_cast<double>(r.shots);
    return r;
}

void
harnessLayer(const WorkloadInputs &inputs, uint64_t seed, Metrics &out,
             SpanRecorder *spans, const MemexpResult *traced)
{
    const MemexpResult mx =
        traced != nullptr
            ? *traced
            : runMemexp(*inputs.ctx, registryFactory(inputs.decoder), 1.0,
                        seed, kMemexpThreads, true, spans);
    double sample_ns = 0.0;
    samplePool(*inputs.ctx, size_t{1} << 16, seed, kMemexpThreads,
               &sample_ns);
    const double per_shot = mx.wallSeconds * 1e9 * kMemexpThreads /
                            static_cast<double>(mx.shots);
    out.add("harness.loop_self_ns",
            per_shot - sample_ns - mx.decodeNsPerShot, "ns");
}

void
memexpWorkload(const Bench &bench, Metrics &out, RunTotals &totals,
               SpanRecorder *spans)
{
    double setup_s = 0.0;
    WorkloadInputs in =
        makeInputs(7, "astrea", size_t{1} << 17, bench.seed, &setup_s);
    const Reference ref =
        buildReference(in, size_t{1} << 17, size_t{1} << 16, totals);
    SliceTimer slices(in, 4096, 32768);
    const DecoderFactory factory = registryFactory(in.decoder);

    const ExperimentResult cal = runMemoryExperiment(
        *in.ctx, factory, kCalibrationShots, kCalibrationSeed,
        kMemexpThreads);
    totals.attempted += kCalibrationShots;
    if (cal.logicalErrors.successes != kCalibrationErrors ||
        cal.gaveUps != kCalibrationGaveUps) {
        totals.failed++;
        char msg[160];
        std::snprintf(msg, sizeof(msg),
                      "memexp seed %llu: %llu errors / %llu give-ups, "
                      "recorded %llu / %llu",
                      (unsigned long long)kCalibrationSeed,
                      (unsigned long long)cal.logicalErrors.successes,
                      (unsigned long long)cal.gaveUps,
                      (unsigned long long)kCalibrationErrors,
                      (unsigned long long)kCalibrationGaveUps);
        totals.fail(msg);
    }

    if (!bench.trace) {
        const MemexpResult mx =
            runMemexp(*in.ctx, factory, bench.seconds, bench.seed,
                      kMemexpThreads, false, nullptr, &slices);
        totals.attempted += mx.shots;
        checkSlices(slices, totals);
        const double shots = static_cast<double>(mx.shots);
        out.add("setup_s", setup_s, "s");
        out.add("peak_rss_mb", peakRssMb(), "MiB");
        out.add("failed_share", static_cast<double>(mx.gaveUps) / shots,
                "share");
        out.add("verdict_p50_us", slices.perShotUs(0.50), "us");
        out.add("goodput_sps", median(mx.chunkGoodRates), "1/s");
        out.add("shots_sps", median(mx.chunkRates), "1/s");
        out.add("decode_sps", slices.batchSps(), "1/s");
        out.add("mwpm_agree_share", ref.mwpmAgreeShare, "share");
        out.add("logical_error_rate", static_cast<double>(mx.errors) / shots,
                "share");
        return;
    }

    const MemexpResult plain =
        runMemexp(*in.ctx, factory, bench.seconds / 2, bench.seed,
                  kMemexpThreads, false, nullptr, &slices);
    const MemexpResult traced = runMemexp(*in.ctx, factory,
                                          bench.seconds / 2, bench.seed,
                                          kMemexpThreads, true, spans);
    totals.attempted += plain.shots + traced.shots;
    checkSlices(slices, totals);
    harnessLayer(in, bench.seed, out, spans, &traced);
    layerProbes(in, out, totals, spans);
    out.add("verdict_p99_us", slices.perShotUs(0.99), "us");
    out.add("trace.overhead_share",
            median(plain.chunkRates) / median(traced.chunkRates) - 1.0,
            "share");
    serveLayers(in, bench.seed, out, totals, spans);
}

} // namespace perfbench
