/**
 * @file
 * Direct per-layer timings for traced runs. Each probe times the
 * benchmark's own calls into one layer's public functions, on the
 * workload's configuration and shot pool, and records a span for it.
 */

#include <algorithm>

#include "compression/syndrome_codec.hh"
#include "dem/extractor.hh"
#include "net/fleet_protocol.hh"
#include "stats.hh"
#include "surface_code/memory_circuit.hh"
#include "workloads.hh"

using namespace astrea;

namespace perfbench
{

namespace
{

constexpr size_t kProbeShots = size_t{1} << 16;
constexpr int kProbeReps = 3;

/** Median over kProbeReps passes of body()'s ns per item. */
template <class F>
double
medianNsPerItem(size_t items, F &&body)
{
    std::vector<double> per;
    for (int r = 0; r < kProbeReps; r++) {
        const uint64_t t0 = nowNs();
        body();
        per.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(std::max<size_t>(1, items)));
    }
    return median(per);
}

void
setupProbe(const ExperimentConfig &cfg, Metrics &out, SpanRecorder *spans)
{
    std::vector<double> circuit_s, dem_s, gwt_s;
    for (int r = 0; r < kProbeReps; r++) {
        const uint64_t t0 = nowNs();
        SurfaceCodeLayout layout(cfg.distance);
        MemoryExperimentSpec spec;
        spec.distance = cfg.distance;
        spec.noise = NoiseModel::uniform(cfg.physicalErrorRate);
        const Circuit circuit = buildMemoryCircuit(layout, spec);
        const uint64_t t1 = nowNs();
        const ErrorModel model = extractErrorModel(circuit);
        const uint64_t t2 = nowNs();
        const DecodingGraph graph(model);
        const GlobalWeightTable gwt(graph);
        const uint64_t t3 = nowNs();
        if (spans != nullptr) {
            const uint64_t root = spans->record("setup", 0, t0, t3);
            spans->record("setup.circuit", root, t0, t1);
            spans->record("setup.dem", root, t1, t2);
            spans->record("setup.gwt", root, t2, t3);
        }
        circuit_s.push_back(static_cast<double>(t1 - t0) / 1e9);
        dem_s.push_back(static_cast<double>(t2 - t1) / 1e9);
        gwt_s.push_back(static_cast<double>(t3 - t2) / 1e9);
    }
    out.add("setup.circuit_s", median(circuit_s), "s");
    out.add("setup.dem_s", median(dem_s), "s");
    out.add("setup.gwt_s", median(gwt_s), "s");
}

/** decodeBatch ns per shot over 256-shot batches of the given shots. */
double
bucketNsPerShot(Decoder &dec, const ShotPool &pool,
                const std::vector<size_t> &shots)
{
    std::vector<SyndromeBatch> batches((shots.size() + 255) / 256);
    for (size_t i = 0; i < shots.size(); i++)
        batches[i / 256].add(pool.shot(shots[i]));
    std::vector<DecodeResult> results;
    DecodeScratch scratch;
    return medianNsPerItem(shots.size(), [&] {
        for (const SyndromeBatch &b : batches)
            dec.decodeBatch(b, results, scratch);
    });
}

} // namespace

void
layerProbes(const WorkloadInputs &in, Metrics &out, RunTotals &totals,
            SpanRecorder *spans)
{
    const ShotPool &pool = in.pool;
    setupProbe(in.cfg, out, spans);

    // sim: the sampler alone, one thread.
    uint64_t t0 = nowNs();
    double sample_ns = 0.0;
    const ShotPool sampled =
        samplePool(*in.ctx, kProbeShots, 0x51A, 1, &sample_ns);
    if (spans != nullptr)
        spans->record("sim.sample", 0, t0, nowNs());
    out.add("sim.sample_ns", sample_ns, "ns");
    out.add("sim.mean_hw",
            static_cast<double>(sampled.defects.size()) /
                static_cast<double>(sampled.size()),
            "count");

    // astrea: bucket-homogeneous decodeBatch calls of the workload's
    // decoder, the wide path's per-HW cost.
    t0 = nowNs();
    auto dec = registryFactory(in.decoder)(*in.ctx);
    std::vector<size_t> b02, b36, b710, gt10;
    for (size_t i = 0; i < pool.size(); i++) {
        const size_t hw = pool.hw(i);
        auto &b = hw <= 2 ? b02 : hw <= 6 ? b36 : hw <= 10 ? b710 : gt10;
        if (b.size() < kProbeShots)
            b.push_back(i);
    }
    out.add("astrea.hw_0-2_ns", bucketNsPerShot(*dec, pool, b02), "ns");
    out.add("astrea.hw_3-6_ns", bucketNsPerShot(*dec, pool, b36), "ns");
    out.add("astrea.hw_7-10_ns", bucketNsPerShot(*dec, pool, b710), "ns");
    if (spans != nullptr)
        spans->record("astrea.buckets", 0, t0, nowNs());

    // astrea_g: the search path on this workload's HW > 10 shots.
    t0 = nowNs();
    auto search = registryFactory("astrea-g")(*in.ctx);
    out.add("astrea_g.search_ns", bucketNsPerShot(*search, pool, gt10), "ns");
    size_t gt10_all = 0;
    for (size_t i = 0; i < pool.size(); i++)
        gt10_all += pool.hw(i) > 10;
    out.add("astrea_g.hw_gt10_share",
            static_cast<double>(gt10_all) / static_cast<double>(pool.size()),
            "share");
    if (spans != nullptr)
        spans->record("astrea_g.search", 0, t0, nowNs());

    // compression: the Sparse codec the fleet client puts on the wire.
    t0 = nowNs();
    const size_t n = std::min(kProbeShots, pool.size());
    const uint32_t bits =
        static_cast<uint32_t>(in.ctx->circuit().numDetectors());
    std::vector<BitVec> syndromes(n, BitVec(bits));
    for (size_t i = 0; i < n; i++)
        for (uint32_t d : pool.shot(i))
            syndromes[i].set(d);
    std::vector<std::vector<uint8_t>> encoded(n);
    out.add("codec.encode_ns", medianNsPerItem(n, [&] {
                for (size_t i = 0; i < n; i++)
                    encodeSyndromeInto(syndromes[i], SyndromeCodec::Sparse,
                                       encoded[i]);
            }),
            "ns");
    BitVec decoded;
    size_t bad = 0, bytes = 0;
    out.add("codec.decode_ns", medianNsPerItem(n, [&] {
                for (size_t i = 0; i < n; i++)
                    bad += !tryDecodeSyndromeInto(encoded[i].data(),
                                                  encoded[i].size(), bits,
                                                  decoded);
            }),
            "ns");
    for (const auto &e : encoded)
        bytes += e.size();
    out.add("codec.bytes_per_shot",
            static_cast<double>(bytes) / static_cast<double>(n), "bytes");
    if (spans != nullptr)
        spans->record("codec", 0, t0, nowNs());

    // net: FleetFrameBuffer over the same shots as Syndrome frames,
    // fed in the 8 KiB reads the server makes.
    t0 = nowNs();
    std::vector<uint8_t> wire;
    for (size_t i = 0; i < n; i++)
        net::appendFleetSyndrome(wire, static_cast<uint32_t>(i % 256),
                                 static_cast<uint32_t>(i / 256), 0,
                                 encoded[i].data(), encoded[i].size());
    size_t frames = 0;
    out.add("net.parse_ns", medianNsPerItem(n, [&] {
                net::FleetFrameBuffer fb;
                net::FleetFrameHeader h;
                const uint8_t *payload = nullptr;
                for (size_t off = 0; off < wire.size(); off += 8192) {
                    fb.append(wire.data() + off,
                              std::min<size_t>(8192, wire.size() - off));
                    while (fb.next(h, payload) == net::FleetParse::Ok)
                        frames++;
                }
            }),
            "ns");
    if (spans != nullptr)
        spans->record("net.parse", 0, t0, nowNs());
    if (bad > 0)
        totals.fail("codec probe could not decode its own encodings");
    if (frames != n * kProbeReps)
        totals.fail("frame parser probe lost frames");
}

} // namespace perfbench
