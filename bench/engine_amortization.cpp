// Engine amortization bench: the facade's reason to exist, measured. A
// k-algorithm comparison sweep (the fig5–fig8 workload) runs two ways:
//
//   one-shot — k partition+distribute+preprocess passes (a fresh Engine per
//              algorithm);
//   engine   — one build: partition+distribute at construction, the
//              preprocessing once on first use; every query replays the
//              recorded build (Config::charge_preprocessing, the default —
//              bit-identical metrics) or, with --charge-preprocessing=0,
//              charges nothing.
//
// A second section measures the monitoring steady state: one long-lived
// engine without the preprocessing charge answering rounds of
// family-algorithm queries (DITRIC, DITRIC2, CETRIC, CETRIC2 — the
// production sink-capable algorithms), against a baseline that rebuilds
// everything per query. Steady-state per-round wall clock is the honest
// monitoring metric: the build is paid once, in a warmup round, and is not
// part of any measured round.
//
// Doubles as the CI equivalence gate: every engine result must match its
// one-shot twin's triangle count — and, when charged, be bit-identical to
// it (simulated time, volume, messages) — and the steady-state round must
// save at least --warm-gate percent of the per-query-rebuild round's wall
// clock — or the bench exits non-zero. Snapshot: bench/BENCH_engine.json.

#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "obs/trace_check.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_engine_amortization",
                  "one Engine build vs k one-shot rebuilds on an algorithm sweep");
    cli.option("log-n", "13", "log2 of vertex count");
    cli.option("instance", "rmat",
               "input family: rmat (skewed, the monitoring-workload shape whose "
               "hub preprocessing dominates) or rgg2d (uniform, avg degree 16)");
    cli.option("algos", bench::default_algorithms_csv(), "algorithms to sweep");
    cli.option("reps", "3", "sweep repetitions (wall clocks take the best)");
    cli.option("rounds", "4", "monitor rounds for the warm steady-state section");
    cli.option("warm-gate", "70",
               "fail unless the warm steady-state monitor round saves at least "
               "this percent of the per-query-rebuild round (0 disables)");
    cli.flag("smoke", "CI preset: small instance, one repetition");
    Config defaults;
    defaults.num_ranks = 16;
    defaults.options.intersect = seq::IntersectKind::kAdaptive;
    bench::add_engine_options(cli, defaults);
    if (!cli.parse(argc, argv)) { return 0; }

    const auto config = bench::engine_config(cli);
    const bool smoke = cli.get_flag("smoke");
    const auto algorithms = bench::parse_algorithms(cli.get_string("algos"));
    const auto reps = smoke ? std::uint64_t{1} : cli.get_uint("reps");
    const auto warm_gate = static_cast<double>(cli.get_uint("warm-gate"));
    const graph::VertexId n = graph::VertexId{1}
                              << (smoke ? std::uint64_t{11} : cli.get_uint("log-n"));
    bench::print_header("Engine amortization: 1 build vs k rebuilds", config);

    const auto instance = cli.get_string("instance");
    KATRIC_ASSERT_MSG(instance == "rmat" || instance == "rgg2d",
                      "--instance must be rmat or rgg2d");
    const auto g =
        instance == "rmat"
            ? gen::generate_rmat(static_cast<std::uint32_t>(std::log2(n)), 8 * n, 29)
            : gen::generate_rgg2d_local(n, gen::rgg2d_radius_for_degree(n, 16.0), 29);
    const auto k = algorithms.size();
    std::cout << "instance: " << instance << " n=" << g.num_vertices()
              << " m=" << g.num_edges() << ", p=" << config.num_ranks << ", k=" << k
              << " algorithms, " << reps << " rep(s)\n\n";

    Config warm_config = config;
    warm_config.charge_preprocessing = false;

    // --- the sweep, two ways --------------------------------------------
    double engine_wall = -1.0;
    double oneshot_wall = -1.0;
    double build_wall = -1.0;
    std::size_t preprocess_builds = 0;
    std::vector<Report> engine_reports;
    std::vector<core::CountResult> oneshot_results;
    for (std::uint64_t rep = 0; rep < reps; ++rep) {
        WallTimer timer;
        Engine engine(g, config);
        const double build_seconds = timer.elapsed_seconds();
        std::vector<Report> reports;
        reports.reserve(k);
        for (const auto algorithm : algorithms) {
            reports.push_back(engine.count(algorithm));
        }
        const double elapsed = timer.elapsed_seconds();
        if (engine_wall < 0.0 || elapsed < engine_wall) {
            engine_wall = elapsed;
            build_wall = build_seconds;
            preprocess_builds = engine.preprocess_builds();
            engine_reports = std::move(reports);
        }

        timer.restart();
        std::vector<core::CountResult> results;
        results.reserve(k);
        for (const auto algorithm : algorithms) {
            auto spec = config.run_spec();
            spec.algorithm = algorithm;
            auto oneshot_config = Config::from_run_spec(spec);
            oneshot_config.charge_preprocessing = config.charge_preprocessing;
            results.push_back(Engine(g, oneshot_config).count().count);
        }
        const double oneshot_elapsed = timer.elapsed_seconds();
        if (oneshot_wall < 0.0 || oneshot_elapsed < oneshot_wall) {
            oneshot_wall = oneshot_elapsed;
            oneshot_results = std::move(results);
        }
    }

    // --- equivalence gate ------------------------------------------------
    Table table({"algo", "triangles", "sim time (s)", "volume (words)", "one-shot =="});
    bool identical = true;
    for (std::size_t i = 0; i < k; ++i) {
        const auto& engine_run = engine_reports[i].count;
        const auto& oneshot_run = oneshot_results[i];
        const bool match =
            engine_run.triangles == oneshot_run.triangles
            && engine_run.total_time == oneshot_run.total_time
            && engine_run.total_words_sent == oneshot_run.total_words_sent
            && engine_run.max_messages_sent == oneshot_run.max_messages_sent;
        identical = identical && match;
        table.row()
            .cell(core::algorithm_name(algorithms[i]))
            .cell(engine_run.triangles)
            .cell(engine_run.total_time, 5)
            .cell(engine_run.total_words_sent)
            .cell(match ? "yes" : "DIVERGED");
    }
    table.print(std::cout);
    if (!identical) {
        std::cerr << "\nFAIL: an engine result diverged from its one-shot twin\n";
        return 1;
    }

    const double saved = oneshot_wall - engine_wall;
    std::cout << "\nbuild passes:   engine sweep 1, one-shot sweep " << k << '\n'
              << "wall clock:     engine " << engine_wall * 1e3 << " ms (construction "
              << build_wall * 1e3 << " ms, " << preprocess_builds
              << " preprocessing build(s)), one-shot " << oneshot_wall * 1e3 << " ms\n"
              << "amortization:   " << saved * 1e3 << " ms saved ("
              << 100.0 * saved / oneshot_wall << "% of the sweep)\n";

    // --- warm monitor steady state ---------------------------------------
    // The monitoring workload: one long-lived engine without the
    // preprocessing charge answers rounds of family-algorithm queries.
    // Steady-state round wall clock (built once, in the warmup round)
    // against a baseline that rebuilds the distributed state for every
    // query.
    const std::vector<core::Algorithm> family = {
        core::Algorithm::kDitric, core::Algorithm::kDitric2, core::Algorithm::kCetric,
        core::Algorithm::kCetric2};
    const auto rounds = std::max<std::uint64_t>(1, cli.get_uint("rounds"));
    Engine monitor(g, warm_config);
    for (const auto algorithm : family) { (void)monitor.count(algorithm); }  // warmup
    WallTimer steady_timer;
    std::uint64_t warm_check = 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (const auto algorithm : family) {
            warm_check += monitor.count(algorithm).count.triangles;
        }
    }
    const double warm_round =
        steady_timer.elapsed_seconds() / static_cast<double>(rounds);

    steady_timer.restart();
    std::uint64_t rebuild_check = 0;
    for (std::uint64_t round = 0; round < rounds; ++round) {
        for (const auto algorithm : family) {
            auto spec = config.run_spec();
            spec.algorithm = algorithm;
            rebuild_check +=
                Engine(g, Config::from_run_spec(spec)).count().count.triangles;
        }
    }
    const double rebuild_round =
        steady_timer.elapsed_seconds() / static_cast<double>(rounds);
    const double steady_saved_percent = 100.0 * (rebuild_round - warm_round)
                                        / rebuild_round;
    std::cout << "\nwarm monitor (family sweep x " << rounds << " rounds): "
              << "steady-state round " << warm_round * 1e3
              << " ms vs per-query rebuild round " << rebuild_round * 1e3 << " ms — "
              << steady_saved_percent << "% saved, " << monitor.preprocess_builds()
              << " preprocessing build(s) total\n";
    if (warm_check != rebuild_check) {
        std::cerr << "\nFAIL: warm monitor counts diverged from per-query rebuild\n";
        return 1;
    }
    if (warm_gate > 0.0 && steady_saved_percent < warm_gate) {
        std::cerr << "\nFAIL: warm steady-state round saved " << steady_saved_percent
                  << "% < gate " << warm_gate << "%\n";
        return 1;
    }
    if (config.metrics && monitor.observability()) {
        // The warm-serving observability payload: per-query latency p50/p99
        // from the monitor's registry plus the kernel dispatch mix.
        std::cout << "\n-- warm monitor metrics (--metrics) --\n"
                  << monitor.metrics_summary();
    }

    // --- mixed query workload against the same build ---------------------
    WallTimer mixed_timer;
    Engine engine(g, config);
    const auto count = engine.count(core::Algorithm::kCetric);
    const auto lcc = engine.lcc(core::Algorithm::kCetric);
    const auto enumerated = engine.enumerate();
    const auto approx = engine.approx_count();
    const double mixed_wall = mixed_timer.elapsed_seconds();
    const bool mixed_ok = count.ok() && lcc.ok() && enumerated.ok() && approx.ok()
                          && lcc.count.triangles == count.count.triangles
                          && enumerated.triangles.size() == enumerated.count.triangles;
    std::cout << "\nmixed workload (count + LCC + enumerate + approx, one build): "
              << mixed_wall * 1e3 << " ms, " << engine.queries_run()
              << " queries on " << engine.build_passes() << " build pass\n";
    if (!mixed_ok) {
        std::cerr << "FAIL: mixed-workload invariants violated\n";
        return 1;
    }

    // The same mixed workload without the preprocessing charge must agree on
    // every result.
    WallTimer warm_mixed_timer;
    Engine warm(g, warm_config);
    const auto warm_count = warm.count(core::Algorithm::kCetric);
    const auto warm_lcc = warm.lcc(core::Algorithm::kCetric);
    const auto warm_enumerated = warm.enumerate();
    const auto warm_approx = warm.approx_count();
    const double warm_mixed_wall = warm_mixed_timer.elapsed_seconds();
    const bool warm_mixed_ok =
        warm_count.ok() && warm_lcc.ok() && warm_enumerated.ok() && warm_approx.ok()
        && warm_count.count.triangles == count.count.triangles
        && warm_lcc.delta == lcc.delta
        && warm_enumerated.triangles == enumerated.triangles
        && warm_approx.estimated_triangles == approx.estimated_triangles;
    std::cout << "warm mixed workload: " << warm_mixed_wall * 1e3 << " ms, "
              << warm.preprocess_builds() << " preprocessing build(s)\n";
    if (!warm_mixed_ok) {
        std::cerr << "FAIL: warm mixed-workload results diverged\n";
        return 1;
    }

    JsonWriter json;
    json.begin_row()
        .field("mode", std::string("engine-sweep"))
        .field("algorithms", static_cast<std::uint64_t>(k))
        .field("build_passes", std::uint64_t{1})
        .field("preprocess_builds", static_cast<std::uint64_t>(preprocess_builds))
        .field("wall_seconds", engine_wall)
        .field("build_seconds", build_wall);
    json.begin_row()
        .field("mode", std::string("oneshot-sweep"))
        .field("algorithms", static_cast<std::uint64_t>(k))
        .field("build_passes", static_cast<std::uint64_t>(k))
        .field("wall_seconds", oneshot_wall);
    json.begin_row()
        .field("mode", std::string("amortization"))
        .field("saved_seconds", saved)
        .field("saved_percent", 100.0 * saved / oneshot_wall)
        .field("identical_results", std::uint64_t{identical ? 1u : 0u});
    json.begin_row()
        .field("mode", std::string("warm-monitor"))
        .field("rounds", rounds)
        .field("warm_round_seconds", warm_round)
        .field("rebuild_round_seconds", rebuild_round)
        .field("steady_saved_percent", steady_saved_percent);
    json.begin_row()
        .field("mode", std::string("mixed-workload"))
        .field("build_passes", std::uint64_t{1})
        .field("queries", static_cast<std::uint64_t>(4))
        .field("wall_seconds", mixed_wall)
        .field("warm_wall_seconds", warm_mixed_wall);
    if (config.metrics && monitor.observability()) {
        for (const auto& row : monitor.observability()->registry().snapshot()) {
            json.begin_row()
                .field("mode", std::string("metric"))
                .field("name", row.name)
                .field("value", row.value);
        }
    }
    json.write(cli.get_string("json"));

    // With --trace-out every engine above appended to one shared timeline;
    // write it now and self-validate against the schema checker (the CI
    // smoke leg re-validates the artifact through the test binary).
    if (!config.trace_out.empty() && monitor.observability()) {
        if (!monitor.observability()->flush_trace()) {
            std::cerr << "FAIL: could not write trace to " << config.trace_out << '\n';
            return 1;
        }
        const auto check = obs::check_trace_file(config.trace_out);
        std::cout << "\ntrace: wrote " << config.trace_out << " — " << check.num_spans
                  << " spans, " << check.num_events << " events, "
                  << (check.ok ? std::string("schema OK")
                               : "SCHEMA INVALID: " + check.error)
                  << '\n';
        if (!check.ok) { return 1; }
    }
    return 0;
}
