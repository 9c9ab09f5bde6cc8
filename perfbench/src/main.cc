/**
 * @file
 * perfbench: the repository's end-to-end benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-dir DIR]
 *
 * Workloads: serve-steady, serve-overload, decode-d9, memexp-d7 (see
 * perfbench/README.md). With --trace 0 the last stdout line carries
 * every end-to-end metric; with --trace 1 it carries every per-layer
 * metric, and the run's spans are written to DIR. A line describing
 * the host and build precedes it.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <sys/stat.h>

#include "workloads.hh"

using namespace perfbench;

namespace
{

const char *const kEndToEnd[] = {
    "setup_s",     "peak_rss_mb", "failed_share",     "verdict_p50_us",
    "goodput_sps", "shots_sps",   "decode_sps",       "mwpm_agree_share",
    "logical_error_rate",
};

// verdict_p99_us is reported here, without a bound, because host CPU
// steal moves the serving tail far more than any bound (README).
const char *const kPerLayer[] = {
    "verdict_p99_us",
    "setup.circuit_s",
    "setup.dem_s",
    "setup.gwt_s",
    "sim.sample_ns",
    "sim.mean_hw",
    "astrea.hw_0-2_ns",
    "astrea.hw_3-6_ns",
    "astrea.hw_7-10_ns",
    "astrea_g.search_ns",
    "astrea_g.hw_gt10_share",
    "codec.encode_ns",
    "codec.decode_ns",
    "codec.bytes_per_shot",
    "net.parse_ns",
    "net.send_ns",
    "net.deliver_ns_p50",
    "net.deliver_ns_p99",
    "net.deliver_busy_share",
    "fleet.batch_shots_mean",
    "fleet.decode_busy_share",
    "fleet.decode_ns_per_shot",
    "fleet.queue_depth_p99",
    "fleet.shed_share",
    "fleet.ring_full_share",
    "fleet.ingest_to_flush_us",
    "harness.loop_self_ns",
    "span.wire_in_us",
    "span.queue_us",
    "span.decode_us",
    "span.wire_out_us",
    "span.coverage",
    "trace.overhead_share",
    "loadgen.late_p99_us",
    "loadgen.late_max_us",
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "{serve-steady,serve-overload,decode-d9,memexp-d7} "
                 "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n",
                 why);
    return 2;
}

/** Check the sheet holds exactly the expected names, all finite. */
template <size_t N>
void
checkSheet(const Metrics &m, const char *const (&names)[N],
           RunTotals &totals)
{
    std::set<std::string> want(std::begin(names), std::end(names));
    std::set<std::string> seen;
    for (const auto &e : m.entries()) {
        if (!want.count(e.name))
            totals.fail("unexpected metric " + e.name);
        if (!seen.insert(e.name).second)
            totals.fail("duplicate metric " + e.name);
        if (!std::isfinite(e.value))
            totals.fail("non-finite metric " + e.name);
    }
    for (const auto &w : want)
        if (!seen.count(w))
            totals.fail("missing metric " + w);
}

} // namespace

int
main(int argc, char **argv)
{
    Bench bench;
    bench.traceDir = ".bench_build/traces";
    bool have_seed = false;
    for (int i = 1; i < argc; i++) {
        std::string key = argv[i];
        std::string value;
        const size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return usage(("missing value for " + key).c_str());
        }
        char *end = nullptr;
        if (key == "--workload") {
            bench.workload = value;
        } else if (key == "--seed") {
            bench.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0';
        } else if (key == "--seconds") {
            bench.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' || !(bench.seconds >= 1.0))
                return usage("--seconds must be a number >= 1");
        } else if (key == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace must be 0 or 1");
            bench.trace = value == "1";
        } else if (key == "--trace-dir") {
            bench.traceDir = value;
        } else {
            return usage(("unknown option " + key).c_str());
        }
    }
    if (!have_seed)
        return usage("--seed N is required");
    if (bench.workload != "serve-steady" &&
        bench.workload != "serve-overload" &&
        bench.workload != "decode-d9" && bench.workload != "memexp-d7")
        return usage(("unknown workload '" + bench.workload + "'").c_str());

    const std::string host = hostJson();
    std::printf("{\"host\": %s, \"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d}\n",
                host.c_str(), bench.workload.c_str(),
                static_cast<unsigned long long>(bench.seed),
                bench.trace ? 1 : 0);
    std::fflush(stdout);

    Metrics metrics;
    RunTotals totals;
    SpanRecorder spans(bench.trace ? size_t{1} << 20 : 0);
    SpanRecorder *rec = bench.trace ? &spans : nullptr;
    if (bench.workload == "serve-steady")
        serveWorkload(bench, 20000.0, metrics, totals, rec);
    else if (bench.workload == "serve-overload")
        serveWorkload(bench, 400000.0, metrics, totals, rec);
    else if (bench.workload == "decode-d9")
        decodeWorkload(bench, metrics, totals, rec);
    else
        memexpWorkload(bench, metrics, totals, rec);

    if (bench.trace) {
        checkSheet(metrics, kPerLayer, totals);
        ::mkdir(bench.traceDir.c_str(), 0755);
        const std::string path = bench.traceDir + "/" + bench.workload +
                                 "-seed" + std::to_string(bench.seed) +
                                 ".jsonl";
        if (!spans.writeJsonl(path, "{\"host\": " + host + "}"))
            totals.fail("could not write spans to " + path);
        else
            std::fprintf(stderr, "perfbench: %zu spans in %s\n",
                         spans.size(), path.c_str());
    } else {
        checkSheet(metrics, kEndToEnd, totals);
    }
    if (totals.attempted == 0)
        totals.fail("no operations attempted");

    for (const auto &p : totals.problems)
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
    for (const auto &e : metrics.entries())
        std::fprintf(stderr, "  %-26s %16.6g %s\n", e.name.c_str(), e.value,
                     e.unit.c_str());

    std::string line = "{\"correct\": ";
    line += totals.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(totals.attempted);
    line += ", \"failed\": " + std::to_string(totals.failed);
    line += ", \"metrics\": {";
    bool first = true;
    for (const auto &e : metrics.entries()) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g",
                      std::isfinite(e.value) ? e.value : 0.0);
        line += first ? "" : ", ";
        line += "\"" + e.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + e.unit + "\"}";
        first = false;
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
