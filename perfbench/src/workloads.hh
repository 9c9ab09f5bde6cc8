/**
 * @file
 * The benchmark's workloads and the engines they share. See
 * perfbench/README.md for why each workload exists and which layer
 * metric should move which end-to-end metric.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench
{

/** Physical error rate of every workload. */
constexpr double kPhysicalErrorRate = 1e-3;
/**
 * setup_s is the median of at least kSetupMinReps ExperimentContext
 * builds, repeated until kSetupMinSeconds have passed.
 */
constexpr int kSetupMinReps = 5;
constexpr double kSetupMinSeconds = 1.5;

/** A workload's code configuration, shots and reference verdicts. */
struct WorkloadInputs
{
    astrea::ExperimentConfig cfg;
    std::shared_ptr<const astrea::ExperimentContext> ctx;
    std::string decoder;  ///< Registry name of the decoder under test.
    ShotPool pool;
    /** The decoder's decodeBatch verdict for every pool shot. */
    std::vector<Verdict> ref;
};

/** Build the context (timing setup_s) and sample the shot pool. */
WorkloadInputs makeInputs(uint32_t distance, const std::string &decoder,
                          size_t pool_shots, uint64_t seed,
                          double *setup_s);

/**
 * Checks and accuracy figures every workload reports. Fills
 * inputs.ref with the decoder's decodeBatch verdicts (256-shot
 * batches); the first per_shot_shots shots go through decodeInto too
 * and must agree. Blossom MWPM decodes the first mwpm_shots shots.
 */
struct Reference
{
    double mwpmAgreeShare = 0.0;
    double ler = 0.0;
};
Reference buildReference(WorkloadInputs &inputs, size_t per_shot_shots,
                         size_t mwpm_shots, RunTotals &totals);

/**
 * Times the workload's decoder on successive pool slices between the
 * main loop's steps, so these figures sample the same stretch of host
 * time as the main loop instead of one short burst before it, and
 * successive steps run on successive CPUs (CpuRotation). Each
 * step() decodes per_shot_slice shots one decodeInto call at a time
 * (each call timed: a shot's verdict is due when its call starts) and
 * batch_slice shots (a multiple of 256) in 256-shot decodeBatch calls.
 * Results must equal inputs.ref.
 */
class SliceTimer
{
  public:
    SliceTimer(const WorkloadInputs &inputs, size_t per_shot_slice,
               size_t batch_slice);

    void step();

    /** Percentile q of all per-shot latencies, in us (0 if too few). */
    double perShotUs(double q);
    /** Median over steps of the batch slices' shots per second. */
    double batchSps() const;
    uint64_t mismatches() const { return mismatches_; }
    uint64_t shots() const { return shots_; }

  private:
    const WorkloadInputs &in_;
    size_t perShotSlice_;
    size_t batchSlice_;
    std::unique_ptr<astrea::Decoder> dec_;
    astrea::DecodeScratch scratch_;
    astrea::SyndromeBatch batch_;
    std::vector<astrea::DecodeResult> results_;
    size_t perShotNext_ = 0;
    size_t batchNext_ = 0;
    std::vector<uint32_t> latNs_;
    std::vector<double> batchRates_;
    uint64_t mismatches_ = 0;
    uint64_t shots_ = 0;
    size_t steps_ = 0;
};

/** Count a SliceTimer's shots and verdict mismatches into totals. */
void checkSlices(const SliceTimer &slices, RunTotals &totals);

/** One open-loop serving run against a DecodeFleet over TCP. */
struct ServeParams
{
    double rate = 20000.0;  ///< Offered shots per second.
    double seconds = 10.0;  ///< Measured window.
    uint64_t seed = 1;
    bool traced = false;
};

struct ServeResult
{
    // Shots due in the measured window, by outcome.
    uint64_t attempted = 0;
    uint64_t expired = 0;  ///< Dropped by the generator as too late.
    uint64_t shed = 0;
    uint64_t errors = 0;
    uint64_t decoded = 0;
    uint64_t gaveUp = 0;
    uint64_t mismatch = 0;
    uint64_t lost = 0;  ///< Sent, but no verdict arrived.
    uint64_t unexpected = 0;

    /** Medians over 100 ms windows of the due-to-verdict percentiles. */
    double p50Us = 0.0;
    double p99Us = 0.0;
    /** Median over 100 ms windows of good verdicts per second. */
    double goodputSps = 0.0;
    double offeredSps = 0.0;
    /** Shots per second of fleet decoder time (decodeBatch calls). */
    double decodeSps = 0.0;
    double lateP99Us = 0.0;
    double lateMaxUs = 0.0;

    /** Traced runs only: per-layer figures (see README). */
    Metrics layers;

    bool ok = true;
    std::string error;

    uint64_t
    failedShots() const
    {
        return expired + shed + errors + gaveUp + mismatch + lost +
               unexpected;
    }
};
ServeResult runServe(const WorkloadInputs &inputs,
                     const ServeParams &params, SpanRecorder *spans);

/** Chunks of runMemoryExperiment until `seconds` elapse. */
struct MemexpResult
{
    uint64_t shots = 0;
    uint64_t errors = 0;
    uint64_t gaveUps = 0;
    double wallSeconds = 0.0;
    /** Per chunk: shots, and shots not given up, per wall second. */
    std::vector<double> chunkRates;
    std::vector<double> chunkGoodRates;
    /** Traced runs: decoder time per shot (thread time). */
    double decodeNsPerShot = 0.0;
};
MemexpResult runMemexp(const astrea::ExperimentContext &ctx,
                       const astrea::DecoderFactory &factory,
                       double seconds, uint64_t seed, unsigned threads,
                       bool traced, SpanRecorder *spans,
                       SliceTimer *between_chunks = nullptr);

/** Worker threads of the memory-experiment workload. */
constexpr unsigned kMemexpThreads = 2;

/**
 * Direct timings of single layers on a workload's own configuration
 * and shots: setup builders, sampler, HW-bucketed decodeBatch,
 * Astrea-G search, codec and frame parser.
 */
void layerProbes(const WorkloadInputs &inputs, Metrics &out,
                 RunTotals &totals, SpanRecorder *spans);

/**
 * Per-layer fleet, net, span and load-generator figures from a short
 * traced serve at 20k shots/s on the workload's own configuration,
 * for workloads whose main loop does not serve.
 */
void serveLayers(const WorkloadInputs &inputs, uint64_t seed,
                 Metrics &out, RunTotals &totals, SpanRecorder *spans);

/**
 * harness.loop_self_ns: the per-shot thread time of a traced memory
 * experiment minus the sampler's and the decoder's per-shot time, with
 * the sampler timed on as many threads right after. Uses `traced` if
 * given, else runs a 1 s traced experiment on the workload's
 * configuration and decoder.
 */
void harnessLayer(const WorkloadInputs &inputs, uint64_t seed,
                  Metrics &out, SpanRecorder *spans,
                  const MemexpResult *traced = nullptr);

void serveWorkload(const Bench &bench, double rate, Metrics &out,
                   RunTotals &totals, SpanRecorder *spans);
void decodeWorkload(const Bench &bench, Metrics &out, RunTotals &totals,
                    SpanRecorder *spans);
void memexpWorkload(const Bench &bench, Metrics &out, RunTotals &totals,
                    SpanRecorder *spans);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
