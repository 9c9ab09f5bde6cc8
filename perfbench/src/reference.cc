/**
 * @file
 * Workload inputs and reference verdicts: the context (timed for
 * setup_s), the seeded shot pool, and the checks every workload's
 * outputs are compared with.
 */

#include <algorithm>
#include <atomic>

#include "stats.hh"
#include "workloads.hh"

using namespace astrea;

namespace perfbench
{

WorkloadInputs
makeInputs(uint32_t distance, const std::string &decoder,
           size_t pool_shots, uint64_t seed, double *setup_s)
{
    WorkloadInputs in;
    in.cfg.distance = distance;
    in.cfg.physicalErrorRate = kPhysicalErrorRate;
    in.decoder = decoder;
    const double s =
        timeContextSetup(in.cfg, kSetupMinReps, kSetupMinSeconds, in.ctx);
    if (setup_s != nullptr)
        *setup_s = s;
    in.pool = samplePool(*in.ctx, pool_shots, seed, 4);
    return in;
}

Reference
buildReference(WorkloadInputs &in, size_t per_shot_shots,
               size_t mwpm_shots, RunTotals &totals)
{
    Reference ref;
    const ShotPool &pool = in.pool;
    const size_t n = pool.size();
    const DecoderFactory factory = registryFactory(in.decoder);
    in.ref = decodePool(*in.ctx, factory, pool, 0, n, 256, 4);

    // Per-shot path: the same shots through decodeInto, one at a time.
    {
        auto dec = factory(*in.ctx);
        DecodeResult res;
        DecodeScratch scratch;
        uint64_t mismatches = 0;
        for (size_t i = 0; i < std::min(per_shot_shots, n); i++) {
            dec->decodeInto(pool.shot(i), res, scratch);
            mismatches += !(Verdict{res.obsMask, res.gaveUp} == in.ref[i]);
        }
        if (mismatches > 0) {
            totals.failed += mismatches;
            totals.fail("per-shot decodeInto differs from decodeBatch");
        }
    }

    // Blossom MWPM on the same shots.
    {
        const size_t m = std::min(mwpm_shots, n);
        std::atomic<uint64_t> agree{0};
        constexpr size_t kTask = 1024;
        parallelIndex(4, 4, [&](size_t w) {
            auto dec = registryFactory("mwpm")(*in.ctx);
            DecodeResult res;
            DecodeScratch scratch;
            uint64_t local = 0;
            for (size_t b = w * kTask; b < m; b += 4 * kTask) {
                for (size_t i = b; i < std::min(m, b + kTask); i++) {
                    dec->decodeInto(pool.shot(i), res, scratch);
                    if (res.obsMask == in.ref[i].obsMask)
                        local++;
                }
            }
            agree.fetch_add(local);
        });
        ref.mwpmAgreeShare =
            static_cast<double>(agree.load()) / static_cast<double>(m);
    }

    uint64_t errors = 0;
    for (size_t i = 0; i < n; i++)
        errors += in.ref[i].obsMask != pool.actual[i];
    ref.ler = static_cast<double>(errors) / static_cast<double>(n);
    return ref;
}

SliceTimer::SliceTimer(const WorkloadInputs &inputs, size_t per_shot_slice,
                       size_t batch_slice)
    : in_(inputs), perShotSlice_(per_shot_slice), batchSlice_(batch_slice),
      dec_(registryFactory(inputs.decoder)(*inputs.ctx))
{
}

void
SliceTimer::step()
{
    // Each step runs on the next CPU; the caller's CPU set is restored
    // before the main loop resumes.
    CpuRotation cpus(steps_++);
    cpus.next();
    const ShotPool &pool = in_.pool;
    DecodeResult res;
    for (size_t k = 0; k < perShotSlice_; k++) {
        const size_t i = perShotNext_++ % pool.size();
        const uint64_t t0 = nowNs();
        dec_->decodeInto(pool.shot(i), res, scratch_);
        latNs_.push_back(static_cast<uint32_t>(nowNs() - t0));
        mismatches_ += !(Verdict{res.obsMask, res.gaveUp} == in_.ref[i]);
    }
    uint64_t busy = 0;
    for (size_t done = 0; done < batchSlice_; done += 256) {
        batch_.clear();
        const size_t first = batchNext_;
        for (size_t k = 0; k < 256; k++)
            batch_.add(pool.shot(batchNext_++ % pool.size()));
        const uint64_t t0 = nowNs();
        dec_->decodeBatch(batch_, results_, scratch_);
        busy += nowNs() - t0;
        for (size_t k = 0; k < 256; k++)
            mismatches_ += !(Verdict{results_[k].obsMask, results_[k].gaveUp} ==
                             in_.ref[(first + k) % pool.size()]);
    }
    shots_ += perShotSlice_ + batchSlice_;
    if (batchSlice_ > 0)
        batchRates_.push_back(static_cast<double>(batchSlice_) /
                              (static_cast<double>(busy) / 1e9));
}

double
SliceTimer::perShotUs(double q)
{
    double v = 0.0;
    return percentile(latNs_, q, v) ? v / 1e3 : 0.0;
}

void
checkSlices(const SliceTimer &slices, RunTotals &totals)
{
    totals.attempted += slices.shots();
    totals.failed += slices.mismatches();
    if (slices.mismatches() > 0)
        totals.fail("timed slices disagree with the reference verdicts");
}

double
SliceTimer::batchSps() const
{
    return median(batchRates_);
}

} // namespace perfbench
