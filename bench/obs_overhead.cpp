// Observability overhead bench: what --metrics and --trace-out cost on the
// warm-monitor steady state (the workload the obs layer was built for). One
// long-lived warm session answers rounds of family-algorithm queries in
// three modes:
//
//   off     — observability disabled (the default every other bench runs);
//   metrics — --metrics=1: registry + kernel dispatch-mix recording;
//   trace   — --metrics=1 --trace-out: metrics plus span recording and the
//             per-superstep rank detail snapshots in the simulator.
//
// The off round is the library's disabled-path cost: obs code compiled in,
// every hook behind a null check. The metrics/trace rows report their
// overhead relative to it. Snapshot: bench/BENCH_obs.json.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "gen/rmat.hpp"
#include "obs/trace_check.hpp"
#include "util/timer.hpp"

namespace {

using namespace katric;

/// One monitor steady state: build a warm session, one warmup sweep, then
/// `rounds` timed family sweeps. Returns per-round wall seconds; the count
/// checksum guards against modes diverging in results.
double monitor_round_seconds(const graph::CsrGraph& g, const Config& config,
                             std::uint64_t rounds, std::uint64_t& check,
                             std::string& metrics_summary) {
    const std::vector<core::Algorithm> family = {
        core::Algorithm::kDitric, core::Algorithm::kDitric2, core::Algorithm::kCetric,
        core::Algorithm::kCetric2};
    Engine monitor(g, config);
    for (const auto algorithm : family) { (void)monitor.count(algorithm); }  // warmup
    WallTimer timer;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (const auto algorithm : family) {
            check += monitor.count(algorithm).count.triangles;
        }
    }
    const double elapsed = timer.elapsed_seconds();
    if (monitor.observability()) { metrics_summary = monitor.metrics_summary(); }
    return elapsed / static_cast<double>(rounds);
}

}  // namespace

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_obs_overhead",
                  "warm-monitor rounds with observability off / metrics / trace");
    cli.option("log-n", "13", "log2 of vertex count (rmat, avg degree 16)");
    cli.option("rounds", "4", "timed monitor rounds per mode");
    cli.option("max-metrics-overhead",
               "25",
               "fail when the metrics round costs more than this percent over "
               "the off round (0 disables; --smoke skips the gate — rounds "
               "that short are dominated by timing noise)");
    cli.flag("smoke", "CI preset: small instance, fewer rounds");
    cli.flag("keep-trace", "keep the trace file instead of deleting it");
    Config defaults;
    defaults.num_ranks = 16;
    defaults.options.intersect = seq::IntersectKind::kAdaptive;
    bench::add_engine_options(cli, defaults);
    if (!cli.parse(argc, argv)) { return 0; }

    const auto base = bench::engine_config(cli);
    const bool smoke = cli.get_flag("smoke");
    const auto rounds =
        std::max<std::uint64_t>(1, smoke ? std::uint64_t{2} : cli.get_uint("rounds"));
    const auto gate = static_cast<double>(cli.get_uint("max-metrics-overhead"));
    const graph::VertexId n = graph::VertexId{1}
                              << (smoke ? std::uint64_t{11} : cli.get_uint("log-n"));
    bench::print_header("Observability overhead: warm monitor off vs metrics vs trace",
                        base);
    const auto g =
        gen::generate_rmat(static_cast<std::uint32_t>(std::log2(n)), 8 * n, 29);
    std::cout << "rmat n=" << g.num_vertices() << " m=" << g.num_edges()
              << ", p=" << base.num_ranks << ", " << rounds << " round(s) per mode\n\n";

    Config off = base;
    off.charge_preprocessing = false;
    off.metrics = false;
    off.trace_out.clear();

    Config metrics = off;
    metrics.metrics = true;

    Config trace = metrics;
    trace.trace_out =
        base.trace_out.empty() ? "obs_overhead.trace.json" : base.trace_out;

    std::uint64_t check_off = 0;
    std::uint64_t check_metrics = 0;
    std::uint64_t check_trace = 0;
    std::string summary_off;
    std::string summary_metrics;
    std::string summary_trace;
    const double off_round = monitor_round_seconds(g, off, rounds, check_off,
                                                   summary_off);
    const double metrics_round =
        monitor_round_seconds(g, metrics, rounds, check_metrics, summary_metrics);
    const double trace_round = monitor_round_seconds(g, trace, rounds, check_trace,
                                                     summary_trace);
    if (check_off != check_metrics || check_off != check_trace) {
        std::cerr << "FAIL: triangle counts diverged across observability modes\n";
        return 1;
    }

    const auto overhead = [&](double seconds) {
        return 100.0 * (seconds - off_round) / off_round;
    };
    Table table({"mode", "round (ms)", "overhead vs off (%)"});
    table.row().cell("off").cell(off_round * 1e3, 3).cell(0.0, 2);
    table.row().cell("metrics").cell(metrics_round * 1e3, 3).cell(
        overhead(metrics_round), 2);
    table.row().cell("metrics+trace").cell(trace_round * 1e3, 3).cell(
        overhead(trace_round), 2);
    table.print(std::cout);

    // The mode's engine is gone by now, so the shared tracer has flushed the
    // file — validate the artifact the run just produced.
    const auto trace_check = obs::check_trace_file(trace.trace_out);
    std::cout << "\ntrace artifact: " << trace.trace_out << " — "
              << trace_check.num_spans << " spans, "
              << (trace_check.ok ? std::string("schema OK")
                                 : "SCHEMA INVALID: " + trace_check.error)
              << '\n';
    if (!summary_metrics.empty()) {
        std::cout << "\n-- metrics mode summary --\n" << summary_metrics;
    }

    JsonWriter json;
    json.begin_row()
        .field("mode", std::string("off"))
        .field("rounds", rounds)
        .field("round_seconds", off_round)
        .field("overhead_percent", 0.0);
    json.begin_row()
        .field("mode", std::string("metrics"))
        .field("rounds", rounds)
        .field("round_seconds", metrics_round)
        .field("overhead_percent", overhead(metrics_round));
    json.begin_row()
        .field("mode", std::string("metrics+trace"))
        .field("rounds", rounds)
        .field("round_seconds", trace_round)
        .field("overhead_percent", overhead(trace_round))
        .field("trace_spans", static_cast<std::uint64_t>(trace_check.num_spans))
        .field("trace_schema_ok", std::uint64_t{trace_check.ok ? 1u : 0u});
    json.write(cli.get_string("json"));

    if (!cli.get_flag("keep-trace")) { std::remove(trace.trace_out.c_str()); }
    if (!trace_check.ok) {
        std::cerr << "FAIL: trace artifact failed schema validation\n";
        return 1;
    }
    if (!smoke && gate > 0.0 && overhead(metrics_round) > gate) {
        std::cerr << "FAIL: metrics overhead " << overhead(metrics_round)
                  << "% > gate " << gate << "%\n";
        return 1;
    }
    return 0;
}
