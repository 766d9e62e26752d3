// Engine serving bench: the concurrent-query workload Engine::serve exists
// for. One warm engine answers a fixed batch of mixed queries through a
// ServeSession at worker counts {1, 2, 4, 8}; for each count we report
// throughput (queries/s, submit-to-drain) and the session's submit-to-
// completion latency p50/p99 from ServeSession::stats().
//
// Gates (CI runs --smoke):
//   bit-identity — every served report's triangle count must equal the
//     sequential baseline's, at every worker count, always;
//   scaling — when the host has >= 4 hardware threads, throughput at 4
//     workers must be at least --speedup-gate (default 2.0) x the
//     1-worker throughput. On smaller hosts (CI runners, containers) real
//     parallel speedup is physically unavailable, so the gate degrades to
//     "concurrency must not cost much": 4-worker throughput >=
//     --overhead-gate (default 0.70) x single-worker. The JSON artifact
//     records hardware_concurrency so a reader can tell which gate applied.
// Snapshot: bench/BENCH_serving.json.

#include <cmath>
#include <future>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "gen/rmat.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
    using namespace katric;
    CliParser cli("bench_engine_serving",
                  "concurrent query serving on one shared warm Engine");
    cli.option("log-n", "13", "log2 of vertex count");
    cli.option("requests", "32", "queries per serving round");
    cli.option("reps", "3", "rounds per worker count (throughput takes the best)");
    cli.option("workers", "1,2,4,8", "worker counts to sweep (csv)");
    cli.option("speedup-gate", "200",
               "fail unless 4-worker throughput >= this percent of 1-worker "
               "throughput when hardware_concurrency >= 4 (0 disables)");
    cli.option("overhead-gate", "70",
               "fallback gate on hosts with < 4 hardware threads: 4-worker "
               "throughput >= this percent of 1-worker (0 disables). "
               "Oversubscribing one core costs ~20% at default sizes; the "
               "gate only catches pathological serving overhead");
    cli.flag("smoke", "CI preset: small instance, fewer requests, one rep");
    Config defaults;
    defaults.num_ranks = 16;
    defaults.charge_preprocessing = false;
    bench::add_engine_options(cli, defaults);
    if (!cli.parse(argc, argv)) { return 0; }

    auto config = bench::engine_config(cli);
    config.charge_preprocessing = false;  // the serving posture
    const bool smoke = cli.get_flag("smoke");
    const auto reps = smoke ? std::uint64_t{1} : cli.get_uint("reps");
    const auto num_requests =
        smoke ? std::uint64_t{12} : std::max<std::uint64_t>(4, cli.get_uint("requests"));
    const graph::VertexId n = graph::VertexId{1}
                              << (smoke ? std::uint64_t{10} : cli.get_uint("log-n"));
    const unsigned hardware = std::thread::hardware_concurrency();
    bench::print_header("Engine serving: worker-pool scaling on one warm engine",
                        config);

    const auto g =
        gen::generate_rmat(static_cast<std::uint32_t>(std::log2(n)), 8 * n, 29);
    std::cout << "instance: rmat n=" << g.num_vertices() << " m=" << g.num_edges()
              << ", p=" << config.num_ranks << ", " << num_requests
              << " requests/round, " << reps << " rep(s), hardware_concurrency="
              << hardware << "\n\n";

    // The request mix: counts cycling through the production sink-capable
    // family — the monitoring workload a serving engine answers all day.
    const std::vector<core::Algorithm> family = {
        core::Algorithm::kDitric, core::Algorithm::kDitric2, core::Algorithm::kCetric,
        core::Algorithm::kCetric2};
    std::vector<ServeRequest> requests(num_requests);
    for (std::uint64_t i = 0; i < num_requests; ++i) {
        requests[i].query = Query::kCount;
        requests[i].options.algorithm = family[i % family.size()];
    }

    // Sequential baseline on its own warm engine: the bit-identity anchor.
    Engine baseline(g, config);
    std::vector<std::uint64_t> expected(num_requests);
    for (std::uint64_t i = 0; i < num_requests; ++i) {
        const auto report = baseline.count(requests[i].options);
        if (!report.ok()) {
            std::cerr << "FAIL: baseline query " << i << ": " << report.error.message
                      << '\n';
            return 1;
        }
        expected[i] = report.count.triangles;
    }

    // One warm engine shared by every worker-count round; the session build
    // is paid once, before any round starts.
    Engine engine(g, config);
    for (const auto algorithm : family) { (void)engine.count(algorithm); }  // warmup

    std::vector<int> worker_counts;
    for (const auto& token : [&] {
             std::vector<std::string> parts;
             std::string part;
             std::stringstream stream(cli.get_string("workers"));
             while (std::getline(stream, part, ',')) { parts.push_back(part); }
             return parts;
         }()) {
        worker_counts.push_back(std::stoi(token));
    }

    Table table({"workers", "throughput (q/s)", "p50 (ms)", "p99 (ms)", "max (ms)",
                 "identical"});
    JsonWriter json;
    bool all_identical = true;
    double throughput_at_1 = 0.0;
    double throughput_at_4 = 0.0;
    for (const int workers : worker_counts) {
        double best_throughput = 0.0;
        ServeSession::Stats best_stats{};
        bool identical = true;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            ServeOptions options;
            options.threads = workers;
            options.queue_depth = num_requests;  // admission never rejects here
            auto session = engine.serve(options);
            std::vector<std::future<Report>> futures;
            futures.reserve(num_requests);
            WallTimer timer;
            for (const auto& request : requests) {
                futures.push_back(session.submit(request));
            }
            session.drain();
            const double wall = timer.elapsed_seconds();
            for (std::uint64_t i = 0; i < num_requests; ++i) {
                const auto report = futures[i].get();
                identical = identical && report.ok()
                            && report.count.triangles == expected[i];
            }
            const double throughput = static_cast<double>(num_requests) / wall;
            if (throughput > best_throughput) {
                best_throughput = throughput;
                best_stats = session.stats();
            }
        }
        all_identical = all_identical && identical;
        if (workers == 1) { throughput_at_1 = best_throughput; }
        if (workers == 4) { throughput_at_4 = best_throughput; }
        table.row()
            .cell(workers)
            .cell(best_throughput, 2)
            .cell(best_stats.latency_p50 * 1e3, 3)
            .cell(best_stats.latency_p99 * 1e3, 3)
            .cell(best_stats.latency_max * 1e3, 3)
            .cell(identical ? "yes" : "DIVERGED");
        json.begin_row()
            .field("mode", std::string("serve"))
            .field("workers", static_cast<std::uint64_t>(workers))
            .field("requests", num_requests)
            .field("throughput_qps", best_throughput)
            .field("latency_p50_seconds", best_stats.latency_p50)
            .field("latency_p99_seconds", best_stats.latency_p99)
            .field("latency_max_seconds", best_stats.latency_max)
            .field("identical", std::uint64_t{identical ? 1u : 0u});
    }
    table.print(std::cout);

    if (!all_identical) {
        std::cerr << "\nFAIL: a served report diverged from the sequential baseline\n";
        return 1;
    }
    std::cout << "\nbit-identity: every served count matches the sequential baseline\n";

    // --- the scaling gate -------------------------------------------------
    const double speedup_gate = static_cast<double>(cli.get_uint("speedup-gate")) / 100.0;
    const double overhead_gate =
        static_cast<double>(cli.get_uint("overhead-gate")) / 100.0;
    double ratio_at_4 = 0.0;
    if (throughput_at_1 > 0.0 && throughput_at_4 > 0.0) {
        ratio_at_4 = throughput_at_4 / throughput_at_1;
        std::cout << "scaling: 4-worker throughput = " << ratio_at_4
                  << "x single-worker (hardware_concurrency=" << hardware << ")\n";
        if (hardware >= 4) {
            if (speedup_gate > 0.0 && ratio_at_4 < speedup_gate) {
                std::cerr << "\nFAIL: 4-worker speedup " << ratio_at_4 << "x < gate "
                          << speedup_gate << "x on a >=4-thread host\n";
                return 1;
            }
        } else if (overhead_gate > 0.0 && ratio_at_4 < overhead_gate) {
            std::cerr << "\nFAIL: 4 workers reached only " << ratio_at_4
                      << "x single-worker throughput (< " << overhead_gate
                      << "x) — serving overhead on a " << hardware << "-thread host\n";
            return 1;
        }
    }

    json.begin_row()
        .field("mode", std::string("scaling"))
        .field("hardware_concurrency", static_cast<std::uint64_t>(hardware))
        .field("throughput_1w_qps", throughput_at_1)
        .field("throughput_4w_qps", throughput_at_4)
        .field("ratio_4w_over_1w", ratio_at_4)
        .field("gate", hardware >= 4 ? std::string("speedup") : std::string("overhead"))
        .field("gate_threshold", hardware >= 4 ? speedup_gate : overhead_gate);
    json.write(cli.get_string("json"));
    return 0;
}
