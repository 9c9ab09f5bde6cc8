/**
 * @file
 * The decode-d9 workload: a closed loop of Astrea-G decodeBatch calls
 * over presampled d = 9 shots in 256-shot batches (the paper's
 * Astrea-G setting). The decoders do all the work; sim, net and the
 * fleet do none.
 */

#include "stats.hh"
#include "workloads.hh"

using namespace astrea;

namespace perfbench
{

namespace
{

constexpr size_t kBatchShots = 256;
constexpr size_t kPoolShots = size_t{1} << 18;

/**
 * At d = 9, p = 1e-3 Astrea-G gives up on about 3e-5 of shots and
 * errs on about 1.5e-5, so a seeded pool small enough to sample each
 * run would report those rates with tens of percent of sampling
 * noise. They are counted instead over a fixed corpus of
 * kCorpusChunks x kCorpusChunkShots shots that every run decodes.
 */
constexpr uint64_t kCorpusSeed = 0xA57EA9;
constexpr size_t kCorpusChunks = 16;
constexpr size_t kCorpusChunkShots = size_t{1} << 16;

struct CorpusCounts
{
    uint64_t shots = 0;
    uint64_t errors = 0;
    uint64_t gaveUps = 0;
};

CorpusCounts
decodeCorpus(const WorkloadInputs &in)
{
    CorpusCounts c;
    const DecoderFactory factory = registryFactory(in.decoder);
    for (size_t i = 0; i < kCorpusChunks; i++) {
        const ShotPool chunk =
            samplePool(*in.ctx, kCorpusChunkShots, kCorpusSeed + i, 4);
        const std::vector<Verdict> v = decodePool(
            *in.ctx, factory, chunk, 0, chunk.size(), kBatchShots, 4);
        for (size_t s = 0; s < chunk.size(); s++) {
            c.errors += v[s].obsMask != chunk.actual[s];
            c.gaveUps += v[s].gaveUp;
        }
        c.shots += chunk.size();
    }
    return c;
}

/** Rates are medians over 100 ms windows of the loop. */
constexpr uint64_t kWindowNs = 100'000'000;

struct LoopResult
{
    uint64_t shots = 0;
    uint64_t mismatches = 0;
    std::vector<double> wallRates;    ///< Shots per wall second.
    std::vector<double> decodeRates;  ///< Shots per decodeBatch second.
    std::vector<double> goodRates;    ///< Non-give-up shots per second.
};

/** Closed loop over the pre-staged batches for `seconds`. */
LoopResult
decodeLoop(const WorkloadInputs &in,
           const std::vector<SyndromeBatch> &batches, double seconds,
           SliceTimer &slices, SpanRecorder *spans)
{
    LoopResult r;
    CpuRotation cpus;
    auto dec = registryFactory(in.decoder)(*in.ctx);
    std::vector<DecodeResult> results;
    DecodeScratch scratch;
    const uint64_t start = nowNs();
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t win_start = start, win_shots = 0, win_good = 0, win_busy = 0;
    for (size_t b = 0;; b++) {
        const size_t bi = b % batches.size();
        const SyndromeBatch &batch = batches[bi];
        const uint64_t t0 = nowNs();
        dec->decodeBatch(batch, results, scratch);
        const uint64_t t1 = nowNs();
        win_busy += t1 - t0;
        if (spans != nullptr)
            spans->record("astrea_g.decode_batch", 0, t0, t1);
        const size_t base = bi * kBatchShots;
        for (size_t i = 0; i < batch.size(); i++) {
            const Verdict got{results[i].obsMask, results[i].gaveUp};
            r.mismatches += !(got == in.ref[base + i]);
            win_good += !got.gaveUp;
        }
        r.shots += batch.size();
        win_shots += batch.size();
        if (t1 - win_start >= kWindowNs) {
            const double wall = static_cast<double>(t1 - win_start) / 1e9;
            r.wallRates.push_back(static_cast<double>(win_shots) / wall);
            r.goodRates.push_back(static_cast<double>(win_good) / wall);
            r.decodeRates.push_back(static_cast<double>(win_shots) /
                                    (static_cast<double>(win_busy) / 1e9));
            if (t1 >= end)
                break;
            slices.step();
            cpus.next();
            win_start = nowNs();
            win_shots = win_good = win_busy = 0;
        }
    }
    return r;
}

} // namespace

void
decodeWorkload(const Bench &bench, Metrics &out, RunTotals &totals,
               SpanRecorder *spans)
{
    double setup_s = 0.0;
    WorkloadInputs in =
        makeInputs(9, "astrea-g", kPoolShots, bench.seed, &setup_s);
    // Every pool shot also goes through per-shot decodeInto, which must
    // agree with the batch path.
    const Reference ref =
        buildReference(in, kPoolShots, size_t{1} << 15, totals);
    SliceTimer slices(in, 1024, 0);

    std::vector<SyndromeBatch> batches(kPoolShots / kBatchShots);
    for (size_t i = 0; i < in.pool.size(); i++)
        batches[i / kBatchShots].add(in.pool.shot(i));

    auto check = [&](const LoopResult &lr) {
        totals.attempted += lr.shots;
        totals.failed += lr.mismatches;
        if (lr.mismatches > 0)
            totals.fail("decodeBatch verdicts changed between passes");
    };

    if (!bench.trace) {
        const LoopResult lr =
            decodeLoop(in, batches, bench.seconds, slices, nullptr);
        check(lr);
        checkSlices(slices, totals);
        const CorpusCounts corpus = decodeCorpus(in);
        const double cshots = static_cast<double>(corpus.shots);
        out.add("setup_s", setup_s, "s");
        out.add("peak_rss_mb", peakRssMb(), "MiB");
        out.add("failed_share",
                static_cast<double>(corpus.gaveUps) / cshots, "share");
        out.add("verdict_p50_us", slices.perShotUs(0.50), "us");
        out.add("goodput_sps", median(lr.goodRates), "1/s");
        out.add("shots_sps", median(lr.wallRates), "1/s");
        out.add("decode_sps", median(lr.decodeRates), "1/s");
        out.add("mwpm_agree_share", ref.mwpmAgreeShare, "share");
        out.add("logical_error_rate",
                static_cast<double>(corpus.errors) / cshots, "share");
        return;
    }

    const LoopResult plain =
        decodeLoop(in, batches, bench.seconds / 2, slices, nullptr);
    const LoopResult traced =
        decodeLoop(in, batches, bench.seconds / 2, slices, spans);
    check(plain);
    check(traced);
    checkSlices(slices, totals);
    layerProbes(in, out, totals, spans);
    out.add("verdict_p99_us", slices.perShotUs(0.99), "us");
    out.add("trace.overhead_share",
            median(plain.decodeRates) / median(traced.decodeRates) - 1.0,
            "share");
    serveLayers(in, bench.seed, out, totals, spans);
    harnessLayer(in, bench.seed, out, spans);
}

} // namespace perfbench
