// The host-clock bench driver: what running katric costs on this machine.
// Every timed quantity is one untimed warmup plus k reps, reported as
// median, IQR and min; every gate compares medians. Three sections, all on
// R-MAT (avg degree 16, seed 29) at p = 16:
//
//   amortization — one Engine build vs k one-shot rebuilds on the paper's
//     algorithm sweep (every engine result must be bit-identical to its
//     one-shot twin); the warm monitor's steady-state family round vs a
//     per-query rebuild (--warm-gate: percent saved); the mixed
//     count/LCC/enumerate/approx workload, charged and uncharged, which
//     must agree. With --trace-out, the shared trace is schema-checked.
//   serving — one warm engine serves a batch of family counts at each
//     worker count; every served count must equal a sequential baseline.
//     On >= 4 hardware threads the 4-worker throughput must reach
//     --speedup-gate percent of the 1-worker one; on smaller hosts it must
//     reach --overhead-gate percent.
//   overhead — the warm family round under off, metrics, metrics+trace,
//     harden, inject0 (an armed injector that never fires) and faulty (a
//     low-rate drop/dup/bitflip plan, recovered by retries). Counts must
//     agree across modes, the trace must pass the schema check and the
//     faulty mode must inject; metrics and harden are gated against off
//     (--max-metrics-overhead, --max-harden-overhead; skipped by --smoke).
//
//   bench_host --section amortization,serving,overhead --json BENCH_host.json
//
// The first JSON row describes the machine; every other row is {section,
// mode, n, m, p, ...keys, reps, median_s, iqr_s, min_s, ...scalars}.
// Snapshot: bench/BENCH_host.json.

#include <cstdio>
#include <future>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "gen/rmat.hpp"
#include "obs/trace_check.hpp"
#include "util/statistics.hpp"
#include "util/timer.hpp"

namespace {

using namespace katric;
using core::Algorithm;
using graph::CsrGraph;

/// The production sink-capable family a monitor or server answers all day.
const std::vector<Algorithm> kFamily = {Algorithm::kDitric, Algorithm::kDitric2,
                                        Algorithm::kCetric, Algorithm::kCetric2};
/// The paper's comparison sweep (the fig5–fig8 workload).
const std::vector<Algorithm> kSweep = {
    Algorithm::kDitric,  Algorithm::kDitric2,      Algorithm::kCetric,
    Algorithm::kCetric2, Algorithm::kHavoqgtStyle, Algorithm::kTricStyle};
/// The faulty mode's plan: it must recover within the retry budget.
constexpr const char* kFaultySpec = "seed=29;drop=0.002;dup=0.002;bitflip=0.001";

/// One untimed warmup call of `run`, then `reps` calls; `run` returns the
/// seconds it measured.
template <typename Run>
Summary repeat(std::uint64_t reps, Run&& run) {
    (void)run();
    Summary seconds;
    for (std::uint64_t rep = 0; rep < reps; ++rep) { seconds.add(run()); }
    return seconds;
}

/// repeat() timing the whole call.
template <typename Body>
Summary timed(std::uint64_t reps, Body&& body) {
    return repeat(reps, [&] {
        WallTimer timer;
        body();
        return timer.elapsed_seconds();
    });
}

/// Percent that `cost` adds over `base`.
double overhead_pct(const Summary& cost, const Summary& base) {
    return 100.0 * (cost.median() - base.median()) / base.median();
}

bool fail(const std::string& what) {
    std::cerr << "FAIL: " << what << '\n';
    return false;
}

/// The shared flags plus the run's preset: repetitions and instance size.
struct Run {
    const CliParser& cli;
    Config config;
    std::uint64_t reps;
    bool smoke;

    /// The section's R-MAT instance: --log-n, or `smoke_log_n` under --smoke.
    [[nodiscard]] CsrGraph instance(std::uint64_t smoke_log_n) const {
        const auto log_n = smoke ? smoke_log_n : cli.get_uint("log-n");
        return gen::generate_rmat(static_cast<std::uint32_t>(log_n),
                                  8 * (graph::VertexId{1} << log_n), 29);
    }
    [[nodiscard]] double percent(const std::string& flag) const {
        return static_cast<double>(cli.get_uint(flag));
    }
};

/// The machine header, then one JSON row and one table row per timed
/// quantity.
class Output {
public:
    explicit Output(bool smoke) {
        json_.begin_row()
            .field("section", std::string("machine"))
            .field("nproc", std::uint64_t{std::thread::hardware_concurrency()})
            .field("compiler", std::string(__VERSION__))
            .field("build_type", std::string(KATRIC_BUILD_TYPE))
            .field("smoke", std::uint64_t{smoke ? 1u : 0u});
        std::cout << "machine: nproc=" << std::thread::hardware_concurrency()
                  << " compiler=\"" << __VERSION__
                  << "\" build_type=" << KATRIC_BUILD_TYPE << '\n';
    }

    void section(const std::string& name, const CsrGraph& g, const Config& config) {
        section_ = name;
        n_ = g.num_vertices();
        m_ = g.num_edges();
        p_ = config.num_ranks;
        std::cout << "\n--- " << name << ": rmat n=" << n_ << " m=" << m_ << ", p=" << p_
                  << '\n';
    }

    using Keys = std::vector<std::pair<std::string, std::uint64_t>>;

    JsonWriter& timed(const std::string& mode, const Summary& seconds,
                      const Keys& keys = {}) {
        auto& row = json_.begin_row()
                        .field("section", section_)
                        .field("mode", mode)
                        .field("n", n_)
                        .field("m", m_)
                        .field("p", p_);
        std::string label = mode;
        for (const auto& [key, value] : keys) {
            row.field(key, value);
            label += " " + key + "=" + std::to_string(value);
        }
        const double iqr = seconds.percentile(0.75) - seconds.percentile(0.25);
        table_.row()
            .cell(section_)
            .cell(label)
            .cell(std::uint64_t{seconds.count()})
            .cell(seconds.median() * 1e3, 3)
            .cell(iqr * 1e3, 3)
            .cell(seconds.min() * 1e3, 3);
        return row.field("reps", std::uint64_t{seconds.count()})
            .field("median_s", seconds.median())
            .field("iqr_s", iqr)
            .field("min_s", seconds.min());
    }

    void finish(const std::string& path) const {
        std::cout << '\n';
        table_.print(std::cout);
        json_.write(path);
    }

private:
    JsonWriter json_;
    Table table_{{"section", "mode", "reps", "median (ms)", "IQR (ms)", "min (ms)"}};
    std::string section_;
    std::uint64_t n_ = 0;
    std::uint64_t m_ = 0;
    std::uint64_t p_ = 0;
};

Config with_algorithm(const Config& config, Algorithm algorithm) {
    auto spec = config.run_spec();
    spec.algorithm = algorithm;
    return Config::from_run_spec(spec);
}

// --- amortization ----------------------------------------------------------

/// The mixed workload's four answers from one build.
struct Mixed {
    Report count, lcc, enumerated, approx;

    [[nodiscard]] bool ok() const {
        return count.ok() && lcc.ok() && enumerated.ok() && approx.ok();
    }
};

Mixed mixed_workload(const CsrGraph& g, const Config& config) {
    Engine engine(g, config);
    return {engine.count(Algorithm::kCetric), engine.lcc(Algorithm::kCetric),
            engine.enumerate(), engine.approx_count()};
}

bool amortization(Output& out, const Run& run) {
    const auto& config = run.config;
    const auto g = run.instance(11);
    out.section("amortization", g, config);

    // The sweep two ways: one build answering every algorithm, and a fresh
    // one-shot Engine (same charge setting) per algorithm.
    std::vector<Report> engine_reports;
    std::size_t preprocess_builds = 0;
    const auto engine_sweep = timed(run.reps, [&] {
        Engine engine(g, config);
        engine_reports.clear();
        for (const auto algorithm : kSweep) {
            engine_reports.push_back(engine.count(algorithm));
        }
        preprocess_builds = engine.preprocess_builds();
    });
    const auto construct = timed(run.reps, [&] { Engine engine(g, config); });
    std::vector<core::CountResult> oneshot;
    const auto oneshot_sweep = timed(run.reps, [&] {
        oneshot.clear();
        for (const auto algorithm : kSweep) {
            auto twin = with_algorithm(config, algorithm);
            twin.charge_preprocessing = config.charge_preprocessing;
            oneshot.push_back(Engine(g, twin).count().count);
        }
    });

    Table table({"algo", "triangles", "sim time (s)", "volume (words)", "one-shot =="});
    bool identical = true;
    for (std::size_t i = 0; i < kSweep.size(); ++i) {
        const auto& engine_run = engine_reports[i].count;
        const auto& twin = oneshot[i];
        const bool match = engine_run.triangles == twin.triangles
                           && engine_run.total_time == twin.total_time
                           && engine_run.total_words_sent == twin.total_words_sent
                           && engine_run.max_messages_sent == twin.max_messages_sent;
        identical = identical && match;
        table.row()
            .cell(core::algorithm_name(kSweep[i]))
            .cell(engine_run.triangles)
            .cell(engine_run.total_time, 5)
            .cell(engine_run.total_words_sent)
            .cell(match ? "yes" : "DIVERGED");
    }
    table.print(std::cout);
    const double saved_pct = -overhead_pct(engine_sweep, oneshot_sweep);
    out.timed("engine-sweep", engine_sweep)
        .field("algorithms", std::uint64_t{kSweep.size()})
        .field("preprocess_builds", std::uint64_t{preprocess_builds});
    out.timed("engine-construct", construct);
    out.timed("oneshot-sweep", oneshot_sweep)
        .field("algorithms", std::uint64_t{kSweep.size()})
        .field("saved_pct", saved_pct);
    std::cout << "amortization: one build saves " << saved_pct << "% of the "
              << kSweep.size() << "-build one-shot sweep (medians)\n";
    if (!identical) { return fail("an engine result diverged from its one-shot twin"); }

    // The warm monitor: one long-lived engine without the preprocessing
    // charge answers family rounds; the baseline rebuilds per query.
    Config warm_config = config;
    warm_config.charge_preprocessing = false;
    Engine monitor(g, warm_config);
    std::uint64_t warm_check = 0;
    const auto warm_round = timed(run.reps, [&] {
        warm_check = 0;
        for (const auto a : kFamily) { warm_check += monitor.count(a).count.triangles; }
    });
    std::uint64_t rebuild_check = 0;
    const auto rebuild_round = timed(run.reps, [&] {
        rebuild_check = 0;
        for (const auto a : kFamily) {
            rebuild_check += Engine(g, with_algorithm(config, a)).count().count.triangles;
        }
    });
    const double steady_saved_pct = -overhead_pct(warm_round, rebuild_round);
    out.timed("warm-round", warm_round)
        .field("preprocess_builds", std::uint64_t{monitor.preprocess_builds()});
    out.timed("rebuild-round", rebuild_round).field("steady_saved_pct", steady_saved_pct);
    const auto warm_gate = run.percent("warm-gate");
    std::cout << "warm monitor: the steady-state round saves " << steady_saved_pct
              << "% of the per-query-rebuild round (gate " << warm_gate << "%)\n";
    if (config.metrics && monitor.observability()) {
        std::cout << "\n-- warm monitor metrics (--metrics) --\n"
                  << monitor.metrics_summary();
    }
    if (warm_check != rebuild_check) {
        return fail("warm monitor counts diverged from per-query rebuild");
    }
    if (warm_gate > 0.0 && steady_saved_pct < warm_gate) {
        return fail("warm steady-state round saved " + std::to_string(steady_saved_pct)
                    + "% < gate " + std::to_string(warm_gate) + "%");
    }

    // The mixed workload on one build, charged and not: the answers agree.
    Mixed charged;
    Mixed warm;
    const auto mixed = timed(run.reps, [&] { charged = mixed_workload(g, config); });
    const auto warm_mixed =
        timed(run.reps, [&] { warm = mixed_workload(g, warm_config); });
    out.timed("mixed", mixed).field("queries", std::uint64_t{4});
    out.timed("warm-mixed", warm_mixed).field("queries", std::uint64_t{4});
    const auto triangles = charged.count.count.triangles;
    if (!charged.ok() || charged.lcc.count.triangles != triangles
        || charged.enumerated.triangles.size() != triangles) {
        return fail("mixed-workload invariants violated");
    }
    if (!warm.ok() || warm.count.count.triangles != triangles
        || warm.lcc.delta != charged.lcc.delta
        || warm.enumerated.triangles != charged.enumerated.triangles
        || warm.approx.estimated_triangles != charged.approx.estimated_triangles) {
        return fail("warm mixed-workload results diverged");
    }

    // With --trace-out every engine above appended to one shared timeline.
    if (!config.trace_out.empty() && monitor.observability()) {
        if (!monitor.observability()->flush_trace()) {
            return fail("could not write trace to " + config.trace_out);
        }
        const auto check = obs::check_trace_file(config.trace_out);
        std::cout << "trace: wrote " << config.trace_out << " — " << check.num_spans
                  << " spans, " << check.num_events << " events\n";
        if (!check.ok) { return fail("trace schema invalid: " + check.error); }
    }
    return true;
}

// --- serving ---------------------------------------------------------------

std::vector<std::uint64_t> worker_counts(const std::string& csv) {
    std::vector<std::uint64_t> counts;
    std::stringstream stream(csv);
    for (std::string token; std::getline(stream, token, ',');) {
        counts.push_back(std::stoull(token));
    }
    return counts;
}

bool serving(Output& out, const Run& run) {
    Config config = run.config;
    config.charge_preprocessing = false;  // the serving posture
    // Serving measures the default kernel unless --intersect says otherwise.
    if (!run.cli.was_set("intersect")) {
        config.options.intersect = seq::IntersectKind::kMerge;
    }
    const auto num_requests = run.smoke ? std::uint64_t{12}
                                        : std::max<std::uint64_t>(
                                              4, run.cli.get_uint("requests"));
    const auto g = run.instance(10);
    out.section("serving", g, config);

    // Family counts, cycling; the sequential baseline is the identity anchor.
    std::vector<ServeRequest> requests(num_requests);
    Engine baseline(g, config);
    std::vector<std::uint64_t> expected;
    for (std::uint64_t i = 0; i < num_requests; ++i) {
        requests[i].query = Query::kCount;
        requests[i].options.algorithm = kFamily[i % kFamily.size()];
        const auto report = baseline.count(requests[i].options);
        if (!report.ok()) { return fail("baseline query: " + report.error.message); }
        expected.push_back(report.count.triangles);
    }

    // One warm engine shared by every worker count; each round is timed from
    // the first submit to the drain.
    Engine engine(g, config);
    bool identical = true;
    std::vector<std::pair<std::uint64_t, Summary>> walls;
    std::vector<Summary> p50;
    std::vector<Summary> p99;
    for (const auto workers : worker_counts(run.cli.get_string("workers"))) {
        std::size_t round = 0;
        p50.emplace_back();
        p99.emplace_back();
        const auto wall = repeat(run.reps, [&] {
            ServeOptions options;
            options.threads = static_cast<int>(workers);
            options.queue_depth = num_requests;  // admission never rejects here
            auto session = engine.serve(options);
            std::vector<std::future<Report>> futures;
            futures.reserve(num_requests);
            WallTimer timer;
            for (const auto& request : requests) {
                futures.push_back(session.submit(request));
            }
            session.drain();
            const double seconds = timer.elapsed_seconds();
            for (std::uint64_t i = 0; i < num_requests; ++i) {
                const auto report = futures[i].get();
                identical = identical && report.ok()
                            && report.count.triangles == expected[i];
            }
            if (round++ > 0) {  // not the warmup
                p50.back().add(session.stats().latency_p50);
                p99.back().add(session.stats().latency_p99);
            }
            return seconds;
        });
        walls.emplace_back(workers, wall);
    }
    if (!identical) {
        return fail("a served report diverged from the sequential baseline");
    }
    std::cout << "bit-identity: every served count matches the sequential baseline\n";

    const auto at = [&](std::uint64_t workers) -> const Summary* {
        for (const auto& [count, wall] : walls) {
            if (count == workers) { return &wall; }
        }
        return nullptr;
    };
    const unsigned hardware = std::thread::hardware_concurrency();
    const bool speedup = hardware >= 4;
    const double gate = run.percent(speedup ? "speedup-gate" : "overhead-gate") / 100.0;
    for (std::size_t i = 0; i < walls.size(); ++i) {
        const auto& [workers, wall] = walls[i];
        auto& row = out.timed("serve", wall, {{"workers", workers}})
                        .field("requests", num_requests)
                        .field("throughput_qps",
                               static_cast<double>(num_requests) / wall.median())
                        .field("latency_p50_s", p50[i].median())
                        .field("latency_p99_s", p99[i].median());
        if (workers == 4 && at(1) != nullptr) {
            row.field("ratio_vs_1w", at(1)->median() / wall.median())
                .field("gate", std::string(speedup ? "speedup" : "overhead"))
                .field("gate_threshold", gate);
        }
    }
    if (at(1) == nullptr || at(4) == nullptr) { return true; }
    const double ratio = at(1)->median() / at(4)->median();
    std::cout << "scaling: 4-worker throughput = " << ratio
              << "x single-worker (medians; hardware_concurrency=" << hardware << ", "
              << (speedup ? "speedup" : "overhead") << " gate " << gate << "x)\n";
    if (gate > 0.0 && ratio < gate) {
        return fail("4-worker throughput " + std::to_string(ratio) + "x single-worker < "
                    + (speedup ? "speedup" : "overhead") + " gate " + std::to_string(gate)
                    + "x on a " + std::to_string(hardware) + "-thread host");
    }
    return true;
}

// --- overhead --------------------------------------------------------------

bool overhead(Output& out, const Run& run) {
    const auto g = run.instance(11);
    Config off = run.config;
    off.charge_preprocessing = false;
    off.metrics = false;
    off.trace_out.clear();
    off.harden = false;
    off.fault_spec.clear();
    out.section("overhead", g, off);

    const std::string trace_path =
        run.config.trace_out.empty() ? "overhead.trace.json" : run.config.trace_out;
    Config metrics = off;
    metrics.metrics = true;
    Config trace = metrics;
    trace.trace_out = trace_path;
    Config harden = off;
    harden.harden = true;
    Config inject0 = off;
    inject0.fault_spec = "seed=1";  // armed injector, zero probabilities
    Config faulty = off;
    faulty.fault_spec = kFaultySpec;
    faulty.max_retries = 16;
    const std::vector<std::pair<std::string, Config>> modes{
        {"off", off},         {"metrics", metrics}, {"metrics+trace", trace},
        {"harden", harden},   {"inject0", inject0}, {"faulty", faulty}};

    std::optional<std::uint64_t> reference;  // the family round's count sum
    std::vector<Summary> rounds;
    for (const auto& [name, config] : modes) {
        std::string error;
        bool diverged = false;
        std::uint64_t frames_sent = 0;  // per family round
        std::uint64_t injected = 0;     // over every round, the warmup included
        std::uint64_t retransmits = 0;
        {
            Engine session(g, config);
            rounds.push_back(timed(run.reps, [&] {
                std::uint64_t check = 0;
                frames_sent = 0;
                for (const auto a : kFamily) {
                    const auto report = session.count(a);
                    if (!report.error.ok()) { error = report.error.message; }
                    check += report.count.triangles;
                    frames_sent += report.faults.frames_sent;
                    injected += report.faults.injected_total();
                    retransmits += report.faults.retransmits;
                }
                diverged = diverged || (reference && *reference != check);
                reference = reference.value_or(check);
            }));
        }  // the session's end flushes its trace
        auto& row = out.timed(name, rounds.back())
                        .field("overhead_pct", overhead_pct(rounds.back(), rounds[0]));
        if (config.harden || !config.fault_spec.empty()) {
            row.field("frames_sent", frames_sent)
                .field("injected", injected)
                .field("retransmits", retransmits);
        }
        if (!error.empty()) { return fail(name + " query errored: " + error); }
        if (diverged) { return fail("triangle counts diverged in mode " + name); }
        if (!config.trace_out.empty()) {
            const auto check = obs::check_trace_file(trace_path);
            row.field("trace_spans", std::uint64_t{check.num_spans});
            std::cout << "trace artifact: " << trace_path << " — " << check.num_spans
                      << " spans\n";
            if (!run.cli.get_flag("keep-trace")) { std::remove(trace_path.c_str()); }
            if (!check.ok) { return fail("trace schema invalid: " + check.error); }
        }
        if (name == "faulty" && injected == 0) {
            return fail("the faulty mode injected nothing — raise its rates");
        }
    }

    for (const auto& [mode, index, flag] :
         {std::tuple{"metrics", 1, "max-metrics-overhead"},
          std::tuple{"harden", 3, "max-harden-overhead"}}) {
        const double pct = overhead_pct(rounds[index], rounds[0]);
        const double gate = run.percent(flag);
        std::cout << mode << " overhead vs off: " << pct << "% (gate " << gate << "%"
                  << (run.smoke ? ", skipped under --smoke" : "") << ")\n";
        if (!run.smoke && gate > 0.0 && pct > gate) {
            return fail(std::string(mode) + " overhead " + std::to_string(pct)
                        + "% > gate " + std::to_string(gate) + "%");
        }
    }
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    CliParser cli("bench_host", "host-clock costs: amortization, serving, overhead");
    cli.option("section", "amortization,serving,overhead",
               "comma-separated sections to run: amortization, serving, overhead");
    cli.option("log-n", "13", "log2 of vertex count (rmat, avg degree 16)");
    cli.option("reps", "7", "timed repetitions per quantity, after one warmup");
    cli.option("requests", "32", "serving: queries per round");
    cli.option("workers", "1,2,4,8", "serving: worker counts to sweep (csv)");
    cli.option("warm-gate", "70",
               "amortization: fail unless the warm steady-state round saves at least "
               "this percent of the per-query-rebuild round (0 disables)");
    cli.option("speedup-gate", "200",
               "serving: fail unless 4-worker throughput >= this percent of 1-worker "
               "throughput when hardware_concurrency >= 4 (0 disables)");
    cli.option("overhead-gate", "70",
               "serving, hosts with < 4 hardware threads: fail unless 4-worker "
               "throughput >= this percent of 1-worker (0 disables)");
    cli.option("max-metrics-overhead", "25",
               "overhead: fail when the metrics round costs more than this percent "
               "over off (0 disables; skipped under --smoke)");
    cli.option("max-harden-overhead", "75",
               "overhead: fail when the harden round costs more than this percent "
               "over off (0 disables; skipped under --smoke)");
    cli.flag("keep-trace", "overhead: keep the trace file instead of deleting it");
    cli.flag("smoke", "CI preset: small instances, 5 reps");
    Config defaults;
    defaults.num_ranks = 16;
    defaults.options.intersect = seq::IntersectKind::kAdaptive;
    bench::add_engine_options(cli, defaults);
    if (!cli.parse(argc, argv)) { return 0; }

    const bool smoke = cli.get_flag("smoke");
    const auto reps = smoke ? 5 : std::max<std::uint64_t>(1, cli.get_uint("reps"));
    const Run run{cli, bench::engine_config(cli), reps, smoke};
    bench::print_header("Host-clock benches (median of " + std::to_string(run.reps)
                            + " reps after a warmup)",
                        run.config);
    Output out(smoke);
    bool ok = true;
    std::stringstream sections(cli.get_string("section"));
    for (std::string section; std::getline(sections, section, ',');) {
        if (section == "amortization") {
            ok = amortization(out, run) && ok;
        } else if (section == "serving") {
            ok = serving(out, run) && ok;
        } else if (section == "overhead") {
            ok = overhead(out, run) && ok;
        } else {
            KATRIC_THROW("unknown section '" << section << "'");
        }
    }
    out.finish(cli.get_string("json"));
    return ok ? 0 : 1;
}
