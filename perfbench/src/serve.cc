/**
 * @file
 * Open-loop serving engine: one FleetClient connection (one send
 * thread, one read thread) offers presampled shots to a DecodeFleet
 * behind a FleetServer on loopback, at Poisson arrival times.
 *
 * Generator rules:
 *  - arrivals come from seeded exponential gaps (PoissonSchedule);
 *  - the sender flushes staged frames whenever it is ahead of
 *    schedule, and otherwise keeps staging (the client flushes at
 *    ~32 KiB);
 *  - latency is timed from each shot's due time, so a stalled sender
 *    charges its stall to every shot it delayed;
 *  - a shot still unsent kExpiryNs after it was due is dropped and
 *    counted as expired, and at most kMaxInFlight shots are
 *    outstanding, so an overloaded run measures bounded queues
 *    instead of an ever-growing backlog.
 *
 * Traced runs stamp every shot at each layer boundary the benchmark
 * can see from outside: sent (client flush), ingest (the fleet clock
 * read by submit()), decode start/end (a timing DecoderFactory), and
 * verdict delivery (a timing verdict sink around FleetServer::deliver).
 */

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <thread>

#include "decoders/registry.hh"
#include "harness/fleet.hh"
#include "net/fleet_client.hh"
#include "net/fleet_server.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace astrea;

namespace perfbench
{

namespace
{

constexpr uint32_t kStreams = 256;
constexpr uint64_t kExpiryNs = 25'000'000;
constexpr uint64_t kMaxInFlight = 4096;
constexpr uint64_t kWarmupNs = 500'000'000;
/**
 * Latency and goodput are taken per 100 ms window and the median over
 * windows is reported: a window at 20k shots/s holds 2000 verdicts, 20
 * beyond its p99, and a host stall spoils the windows it falls in
 * instead of the whole run's tail.
 */
constexpr uint64_t kWindowNs = 100'000'000;
constexpr uint64_t kDrainNs = 3'000'000'000;
/** Slot ring of per-shot stamps, indexed by the shot's send ordinal;
 *  must exceed kMaxInFlight. */
constexpr size_t kSlots = size_t{1} << 16;
/**
 * A serve run offered at most kSteadyRateLimit shots/s is invalid if
 * more than kMaxExpiredShare of its shots expired in the generator.
 */
constexpr double kSteadyRateLimit = 100000.0;
constexpr double kMaxExpiredShare = 0.01;
/** One traced shot in this many records its spans. */
constexpr uint64_t kSpanStride = 64;

static_assert(kSlots > 2 * kMaxInFlight);

/** Per-shot stamps, written by the sender, fleet workers and reader. */
struct Slot
{
    std::atomic<uint64_t> shot{~0ull};
    std::atomic<uint64_t> due{0};
    std::atomic<uint64_t> sent{0};
    std::atomic<uint64_t> ingest{0};
    std::atomic<uint64_t> decStart{0};
    std::atomic<uint64_t> decEnd{0};
    std::atomic<uint64_t> ingestToFlush{0};
};

/** The fleet clock's last reading on this thread (= submit/pump time). */
uint64_t &
lastFleetNow()
{
    thread_local uint64_t t = 0;
    return t;
}

/** Stream priorities cycle 0..7 so shedding has every class to pick. */
uint8_t
priorityOf(uint32_t stream)
{
    return static_cast<uint8_t>(stream % 8);
}

void
waitUntil(uint64_t t)
{
    for (;;) {
        const uint64_t now = nowNs();
        if (now >= t)
            return;
        if (t - now > 30'000)
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(t - now - 15'000));
    }
}

double
us(double ns)
{
    return ns / 1e3;
}

/** Sums of the per-stage durations of traced decoded shots. */
struct StageSums
{
    uint64_t shots = 0;
    double wireIn = 0, queue = 0, decode = 0, wireOut = 0, e2e = 0,
           ingestToFlush = 0;
};

} // namespace

ServeResult
runServe(const WorkloadInputs &inputs, const ServeParams &params,
         SpanRecorder *spans)
{
    ServeResult r;
    const ShotPool &pool = inputs.pool;
    const size_t pool_size = pool.size();
    const FleetConfig fc;  // Serve defaults: 2 shards, ring 1024, 64/200us.

    // Decoder time is measured in every run (two clock reads per
    // coalesced batch) for decode_sps.
    auto decode_clock = std::make_shared<DecodeClock>();
    DecodeFleet fleet(fc, inputs.ctx,
                      timedFactory(registryFactory(inputs.decoder),
                                   decode_clock));
    net::FleetServer server(fleet);
    auto slots = std::make_unique<Slot[]>(kSlots);

    // Deliver timing (traced): per-call samples and worker busy time.
    std::mutex deliver_mu;
    std::vector<uint32_t> deliver_ns;
    std::atomic<uint64_t> deliver_busy{0};

    if (params.traced) {
        deliver_ns.reserve(1 << 20);
        fleet.setNowFunction([] {
            const uint64_t t = nowNs();
            lastFleetNow() = t;
            return t;
        });
        fleet.setVerdictSink([&](const FleetVerdict &v) {
            const uint64_t t0 = nowNs();
            if (!v.shed && !v.error) {
                const uint64_t k =
                    uint64_t{v.seq} * kStreams + v.streamId;
                Slot &s = slots[k & (kSlots - 1)];
                const LastDecode &d = lastDecodeOnThisThread();
                s.ingest.store(lastFleetNow() - v.latencyNs,
                               std::memory_order_relaxed);
                s.decStart.store(d.startNs, std::memory_order_relaxed);
                s.decEnd.store(d.endNs, std::memory_order_relaxed);
                s.ingestToFlush.store(v.latencyNs,
                                      std::memory_order_relaxed);
            }
            server.deliver(v);
            const uint64_t dt = nowNs() - t0;
            if (!v.shed && !v.error)
                deliver_busy.fetch_add(dt, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(deliver_mu);
            if (deliver_ns.size() < deliver_ns.capacity())
                deliver_ns.push_back(static_cast<uint32_t>(
                    std::min<uint64_t>(dt, UINT32_MAX)));
        });
    } else {
        fleet.setVerdictSink(
            [&server](const FleetVerdict &v) { server.deliver(v); });
    }

    std::string error;
    if (!server.start("127.0.0.1", 0, &error)) {
        r.ok = false;
        r.error = "fleet server: " + error;
        return r;
    }
    fleet.start();

    net::FleetClient client;
    if (!client.connect("127.0.0.1", server.port(), &error)) {
        fleet.stop();
        server.stop();
        r.ok = false;
        r.error = "fleet client: " + error;
        return r;
    }

    const uint64_t measure_ns =
        static_cast<uint64_t>(params.seconds * 1e9);
    const size_t windows =
        std::max<size_t>(1, (measure_ns + kWindowNs - 1) / kWindowNs);
    const uint64_t t0 = nowNs() + 2'000'000;
    const uint64_t measure_begin = t0 + kWarmupNs;
    const uint64_t measure_end = measure_begin + measure_ns;

    // Reader-owned accounting.
    std::vector<std::vector<uint32_t>> lat(windows);
    std::vector<uint64_t> good(windows, 0);
    for (auto &w : lat)
        w.reserve(static_cast<size_t>(
            std::min(params.rate, 200000.0) * 0.11));
    StageSums stages;
    std::atomic<uint64_t> received{0};
    std::atomic<uint64_t> sent_total{0};
    std::atomic<bool> sender_done{false};

    std::thread reader([&] {
        net::FleetClientVerdict v;
        while (client.readVerdict(v)) {
            const uint64_t now = nowNs();
            const uint64_t k = uint64_t{v.seq} * kStreams + v.streamId;
            Slot &s = slots[k & (kSlots - 1)];
            const uint64_t got = received.fetch_add(1) + 1;
            if (v.streamId >= kStreams ||
                s.shot.load(std::memory_order_relaxed) != k) {
                r.unexpected++;
            } else {
                const uint64_t due = s.due.load(std::memory_order_relaxed);
                if (due >= measure_begin && due < measure_end) {
                    const size_t w = (due - measure_begin) / kWindowNs;
                    if (v.shed) {
                        r.shed++;
                    } else if (v.error) {
                        r.errors++;
                    } else {
                        r.decoded++;
                        const Verdict &ref = inputs.ref[k % pool_size];
                        if (!(ref == Verdict{v.obsMask, v.gaveUp}))
                            r.mismatch++;
                        else if (v.gaveUp)
                            r.gaveUp++;
                        else
                            good[w]++;
                        lat[w].push_back(static_cast<uint32_t>(
                            std::min<uint64_t>(now - due, UINT32_MAX)));
                        if (params.traced) {
                            const uint64_t sent =
                                s.sent.load(std::memory_order_relaxed);
                            const uint64_t ing =
                                s.ingest.load(std::memory_order_relaxed);
                            const uint64_t ds = s.decStart.load(
                                std::memory_order_relaxed);
                            const uint64_t de =
                                s.decEnd.load(std::memory_order_relaxed);
                            stages.shots++;
                            stages.wireIn += static_cast<double>(ing) -
                                             static_cast<double>(sent);
                            stages.queue += static_cast<double>(ds) -
                                            static_cast<double>(ing);
                            stages.decode += static_cast<double>(de - ds);
                            stages.wireOut += static_cast<double>(now) -
                                              static_cast<double>(de);
                            stages.e2e += static_cast<double>(now - due);
                            stages.ingestToFlush += static_cast<double>(
                                s.ingestToFlush.load(
                                    std::memory_order_relaxed));
                            if (spans != nullptr && k % kSpanStride == 0) {
                                const uint64_t root = spans->record(
                                    "serve.shot", 0, due, now);
                                spans->record("loadgen.late", root, due,
                                              sent);
                                spans->record("net.wire_in", root, sent,
                                              ing);
                                spans->record("fleet.queue", root, ing, ds);
                                spans->record("astrea.decode_batch", root,
                                              ds, de);
                                spans->record("net.wire_out", root, de,
                                              now);
                            }
                        }
                    }
                }
            }
            if (sender_done.load() && got >= sent_total.load())
                break;
        }
    });

    // Queue-depth poller (traced).
    std::atomic<bool> polling{params.traced};
    std::vector<uint32_t> depths;
    std::thread poller;
    if (params.traced) {
        depths.reserve(1 << 20);
        poller = std::thread([&] {
            while (polling.load()) {
                for (unsigned s = 0; s < fc.shards; s++)
                    if (depths.size() < depths.capacity())
                        depths.push_back(static_cast<uint32_t>(
                            fleet.queueDepth(s)));
                std::this_thread::sleep_for(std::chrono::microseconds(250));
            }
        });
    }

    // Sender (this thread).
    prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
    PoissonSchedule sched(params.seed, params.rate);
    std::vector<uint32_t> late;
    late.reserve(static_cast<size_t>(params.rate * params.seconds * 1.1));
    std::vector<uint64_t> staged;
    uint64_t sent = 0;
    uint64_t send_busy = 0;
    uint64_t fleet_enq0 = 0, fleet_shed0 = 0, fleet_full0 = 0,
             fleet_batches0 = 0, fleet_decoded0 = 0, busy0 = 0,
             deliver_busy0 = 0;
    bool snapshot_taken = false;
    bool send_ok = true;

    // Stamps go in before the write: a verdict can arrive before
    // flush() returns.
    auto flush = [&] {
        const uint64_t f0 = nowNs();
        if (params.traced)
            for (uint64_t k : staged)
                slots[k & (kSlots - 1)].sent.store(
                    f0, std::memory_order_relaxed);
        staged.clear();
        if (!client.flush())
            send_ok = false;
        send_busy += nowNs() - f0;
    };

    while (send_ok) {
        const uint64_t due = t0 + sched.next();
        if (due >= measure_end)
            break;
        if (!snapshot_taken && due >= measure_begin) {
            snapshot_taken = true;
            fleet_enq0 = fleet.enqueuedTotal();
            fleet_shed0 = fleet.shedTotal();
            fleet_full0 = fleet.ringFullTotal();
            fleet_batches0 = fleet.batchesTotal();
            fleet_decoded0 = fleet.decodedTotal();
            busy0 = decode_clock->busyNs.load();
            deliver_busy0 = deliver_busy.load();
        }
        const bool measured = due >= measure_begin;
        if (measured)
            r.attempted++;

        uint64_t now = nowNs();
        if (now < due) {
            if (!staged.empty())
                flush();
            waitUntil(due);
            now = nowNs();
        }
        while (sent - received.load() >= kMaxInFlight &&
               now <= due + kExpiryNs) {
            flush();
            std::this_thread::yield();
            now = nowNs();
        }
        if (now > due + kExpiryNs) {
            if (measured)
                r.expired++;
            continue;
        }

        // Sent shots are numbered consecutively (j = sent), and j names
        // the shot on the wire, its pool shot and its stamp slot.
        const uint64_t j = sent;
        Slot &s = slots[j & (kSlots - 1)];
        s.shot.store(j, std::memory_order_relaxed);
        s.due.store(due, std::memory_order_relaxed);
        const uint32_t stream = static_cast<uint32_t>(j % kStreams);
        const uint64_t b0 = nowNs();
        if (!client.sendShot(stream, static_cast<uint32_t>(j / kStreams),
                             priorityOf(stream), pool.shot(j % pool_size)))
            send_ok = false;
        send_busy += nowNs() - b0;
        staged.push_back(j);
        sent++;
        if (measured)
            late.push_back(static_cast<uint32_t>(
                std::min<uint64_t>(b0 - due, UINT32_MAX)));
    }
    flush();
    const uint64_t send_end = nowNs();
    const uint64_t fleet_enq1 = fleet.enqueuedTotal(),
                   fleet_shed1 = fleet.shedTotal(),
                   fleet_full1 = fleet.ringFullTotal(),
                   fleet_batches1 = fleet.batchesTotal(),
                   fleet_decoded1 = fleet.decodedTotal(),
                   busy1 = decode_clock->busyNs.load(),
                   deliver_busy1 = deliver_busy.load();
    sent_total.store(sent);
    sender_done.store(true);

    // Drain: wait for every outstanding verdict, then tear down. A
    // verdict still missing after kDrainNs counts as lost.
    const uint64_t drain_deadline = nowNs() + kDrainNs;
    while (received.load() < sent && nowNs() < drain_deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    polling.store(false);
    if (poller.joinable())
        poller.join();
    fleet.stop();
    server.stop();  // Closes the connection, ending the reader.
    reader.join();
    client.close();

    if (!send_ok) {
        r.ok = false;
        r.error = "connection lost while sending";
    }
    const uint64_t verdicts = r.shed + r.errors + r.decoded;
    const uint64_t measured_sent = r.attempted - r.expired;
    r.lost = measured_sent > verdicts ? measured_sent - verdicts : 0;

    // End-to-end figures: medians over windows.
    std::vector<double> p50s, p99s, goods;
    for (size_t w = 0; w < windows; w++) {
        const double len = static_cast<double>(std::min(
                               kWindowNs, measure_ns - w * kWindowNs)) /
                           1e9;
        goods.push_back(static_cast<double>(good[w]) / len);
        double p50 = 0.0, p99 = 0.0;
        if (percentile(lat[w], 0.50, p50) && percentile(lat[w], 0.99, p99)) {
            p50s.push_back(us(p50));
            p99s.push_back(us(p99));
        }
    }
    if (p99s.empty()) {
        r.ok = false;
        r.error = "too few verdicts for a p99 in any window";
    }
    r.p50Us = median(p50s);
    r.p99Us = median(p99s);
    r.goodputSps = median(goods);
    r.offeredSps = static_cast<double>(r.attempted) / params.seconds;
    r.decodeSps = static_cast<double>(fleet_decoded1 - fleet_decoded0) /
                  (static_cast<double>(busy1 - busy0) / 1e9);
    double late_p99 = 0.0;
    if (percentile(late, 0.99, late_p99))
        r.lateP99Us = us(late_p99);
    for (uint32_t l : late)
        r.lateMaxUs = std::max(r.lateMaxUs, us(static_cast<double>(l)));
    std::fprintf(stderr,
                 "serve %s: attempted %llu expired %llu shed %llu "
                 "decoded %llu gave_up %llu mismatch %llu lost %llu "
                 "late_p99 %.1fus late_max %.1fus\n",
                 params.traced ? "traced" : "untraced",
                 (unsigned long long)r.attempted,
                 (unsigned long long)r.expired, (unsigned long long)r.shed,
                 (unsigned long long)r.decoded, (unsigned long long)r.gaveUp,
                 (unsigned long long)r.mismatch, (unsigned long long)r.lost,
                 r.lateP99Us, r.lateMaxUs);

    if (params.traced) {
        const double n = static_cast<double>(std::max<uint64_t>(1, stages.shots));
        const double wall = static_cast<double>(send_end - measure_begin);
        const double worker_time = wall * fc.shards;
        const double batches =
            static_cast<double>(fleet_batches1 - fleet_batches0);
        const double decoded =
            static_cast<double>(fleet_decoded1 - fleet_decoded0);
        const double submitted = static_cast<double>(
            (fleet_enq1 - fleet_enq0) + (fleet_shed1 - fleet_shed0));
        const double stage_means[] = {stages.wireIn / n, stages.queue / n,
                                      stages.decode / n,
                                      stages.wireOut / n};
        double dp50 = 0.0, dp99 = 0.0, qd99 = 0.0;
        percentile(deliver_ns, 0.50, dp50);
        percentile(deliver_ns, 0.99, dp99);
        percentile(depths, 0.99, qd99);
        Metrics &m = r.layers;
        m.add("net.send_ns",
              static_cast<double>(send_busy) /
                  static_cast<double>(std::max<uint64_t>(1, sent)),
              "ns");
        m.add("net.deliver_ns_p50", dp50, "ns");
        m.add("net.deliver_ns_p99", dp99, "ns");
        m.add("net.deliver_busy_share",
              static_cast<double>(deliver_busy1 - deliver_busy0) /
                  worker_time,
              "share");
        m.add("fleet.batch_shots_mean",
              batches > 0 ? decoded / batches : 0.0, "count");
        m.add("fleet.decode_busy_share",
              static_cast<double>(busy1 - busy0) / worker_time, "share");
        m.add("fleet.decode_ns_per_shot",
              decoded > 0 ? static_cast<double>(busy1 - busy0) / decoded
                          : 0.0,
              "ns");
        m.add("fleet.queue_depth_p99", qd99, "count");
        m.add("fleet.shed_share",
              submitted > 0 ? static_cast<double>(fleet_shed1 - fleet_shed0) /
                                  submitted
                            : 0.0,
              "share");
        m.add("fleet.ring_full_share",
              submitted > 0 ? static_cast<double>(fleet_full1 - fleet_full0) /
                                  submitted
                            : 0.0,
              "share");
        // Ingest to flush start: ring plus coalescing wait, without the
        // decode (the stamp FleetVerdict::latencyNs carries).
        m.add("fleet.ingest_to_flush_us", us(stages.ingestToFlush / n),
              "us");
        m.add("span.wire_in_us", us(stage_means[0]), "us");
        m.add("span.queue_us", us(stage_means[1]), "us");
        m.add("span.decode_us", us(stage_means[2]), "us");
        m.add("span.wire_out_us", us(stage_means[3]), "us");
        m.add("span.coverage", coverage(stage_means, stages.e2e / n),
              "share");
        m.add("loadgen.late_p99_us", r.lateP99Us, "us");
        m.add("loadgen.late_max_us", r.lateMaxUs, "us");
    }
    return r;
}

namespace
{

/** runServe() plus its checks, counted into totals. */
ServeResult
serveChecked(const WorkloadInputs &inputs, const ServeParams &params,
             SpanRecorder *spans, RunTotals &totals)
{
    ServeResult sr = runServe(inputs, params, spans);
    totals.attempted += sr.attempted;
    totals.failed += sr.mismatch + sr.lost + sr.errors + sr.unexpected;
    if (!sr.ok)
        totals.fail(sr.error);
    if (sr.mismatch > 0)
        totals.fail("serve verdicts differ from reference decodeBatch");
    if (sr.lost + sr.unexpected + sr.errors > 0)
        totals.fail("verdicts lost, unexpected or in error");
    // Below capacity the generator must keep to its schedule, or the
    // run measured the generator rather than the server.
    if (params.rate <= kSteadyRateLimit &&
        static_cast<double>(sr.expired) >
            kMaxExpiredShare * static_cast<double>(sr.attempted))
        totals.fail("generator fell behind its schedule");
    return sr;
}

} // namespace

void
serveWorkload(const Bench &bench, double rate, Metrics &out,
              RunTotals &totals, SpanRecorder *spans)
{
    double setup_s = 0.0;
    // A pool larger than the shots served at 20k/s keeps steady-state
    // shots distinct and the pool's LER estimate tight.
    WorkloadInputs in = makeInputs(7, "astrea", size_t{1} << 20,
                                   bench.seed, &setup_s);
    const Reference ref =
        buildReference(in, size_t{1} << 16, size_t{1} << 16, totals);
    ServeParams p;
    p.rate = rate;
    p.seconds = bench.seconds;
    p.seed = bench.seed;

    if (!bench.trace) {
        const ServeResult sr = serveChecked(in, p, nullptr, totals);
        out.add("setup_s", setup_s, "s");
        out.add("peak_rss_mb", peakRssMb(), "MiB");
        out.add("failed_share",
                static_cast<double>(sr.failedShots()) /
                    static_cast<double>(std::max<uint64_t>(1, sr.attempted)),
                "share");
        out.add("verdict_p50_us", sr.p50Us, "us");
        out.add("goodput_sps", sr.goodputSps, "1/s");
        out.add("shots_sps", sr.offeredSps, "1/s");
        out.add("decode_sps", sr.decodeSps, "1/s");
        out.add("mwpm_agree_share", ref.mwpmAgreeShare, "share");
        out.add("logical_error_rate", ref.ler, "share");
        return;
    }

    // Traced: half the window untraced, half traced, so the traced
    // numbers sit next to the untraced ones they perturb.
    p.seconds = bench.seconds / 2;
    const ServeResult plain = serveChecked(in, p, nullptr, totals);
    p.traced = true;
    const ServeResult traced = serveChecked(in, p, spans, totals);
    layerProbes(in, out, totals, spans);
    out.add("verdict_p99_us", plain.p99Us, "us");
    for (const auto &e : traced.layers.entries())
        out.add(e.name, e.value, e.unit);
    // The workload's headline: latency below capacity, goodput above.
    out.add("trace.overhead_share",
            rate > kSteadyRateLimit ? plain.goodputSps / traced.goodputSps - 1.0
                                    : traced.p50Us / plain.p50Us - 1.0,
            "share");
    harnessLayer(in, bench.seed, out, spans);
}

void
serveLayers(const WorkloadInputs &inputs, uint64_t seed, Metrics &out,
            RunTotals &totals, SpanRecorder *spans)
{
    ServeParams p;
    p.rate = 20000.0;
    p.seconds = 2.0;
    p.seed = seed;
    p.traced = true;
    const ServeResult sr = serveChecked(inputs, p, spans, totals);
    for (const auto &e : sr.layers.entries())
        out.add(e.name, e.value, e.unit);
}

} // namespace perfbench
