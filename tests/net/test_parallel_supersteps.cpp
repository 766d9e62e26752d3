// Rank-parallel supersteps change host time only. A run whose ranks' start
// and idle callbacks execute concurrently on a worker pool must leave
// exactly what the rank-by-rank run leaves: every Report field, every
// rank's counters, every superstep's per-rank clocks, the fault counters —
// bit for bit, including OOM, injected-fault and failed runs. The pool here
// is an explicit 3-helper one, so the concurrent path runs whatever the
// host's core count.

#include <gtest/gtest.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/approx.hpp"
#include "core/dist_lcc.hpp"
#include "core/runner.hpp"
#include "engine.hpp"
#include "fault/injector.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "graph/distributed_graph.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "net/termination.hpp"
#include "report.hpp"
#include "support/expect_report.hpp"
#include "support/reference.hpp"
#include "util/worker_pool.hpp"

namespace katric {
namespace {

util::WorkerPool& three_helpers() {
    static util::WorkerPool pool(3);
    return pool;
}

const graph::CsrGraph& skewed_graph() {
    static const graph::CsrGraph graph =
        gen::generate_rmat(7, graph::EdgeId{6} << 7, /*seed=*/23);
    return graph;
}

enum class Faults { kNone, kDrop, kDuplicate, kBitFlip, kDropFailFast };

std::string fault_spec(Faults faults) {
    switch (faults) {
        case Faults::kNone: return "";
        case Faults::kDrop:
        case Faults::kDropFailFast: return "seed=5;drop=0.1";
        case Faults::kDuplicate: return "seed=5;dup=0.1";
        case Faults::kBitFlip: return "seed=5;bitflip=0.1";
    }
    return "";
}

/// Everything a query leaves behind: its Report (built the way the Engine
/// builds one) plus the machine state the Report summarizes.
struct Outcome {
    Report report;
    std::vector<net::RankMetrics> ranks;
    std::vector<net::PhaseRecord> phases;
    /// How many distinct host threads made a rank's first find (enumerate
    /// only) — more than one proves the ranks really ran concurrently.
    std::size_t finder_threads = 0;
};

/// Builds the views and runs `kind` on one simulator — preprocessing build
/// included, so its supersteps run in parallel too — with `pool` attached.
Outcome run(const graph::CsrGraph& g, const core::RunSpec& spec, Query kind,
            Faults faults, util::WorkerPool* pool) {
    auto views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network);
    sim.set_worker_pool(pool);
    sim.record_phase_details(true);
    fault::FaultStats stats;
    std::optional<fault::FaultInjector> injector;
    if (faults != Faults::kNone) {
        injector.emplace(fault::FaultPlan::parse(fault_spec(faults)));
        net::HardenOptions harden;
        harden.injector = &*injector;
        harden.stats = &stats;
        harden.max_retries = faults == Faults::kDropFailFast ? 0 : 3;
        sim.harden(harden);
    }
    Outcome out;
    Report& report = out.report;
    report.query = kind;
    report.algorithm = spec.algorithm;
    // Per-finder buckets, like the Engine's enumerate collector.
    std::vector<std::deque<core::Triangle>> found(spec.num_ranks);
    std::vector<std::thread::id> first_find_thread(spec.num_ranks);
    const core::TriangleSink collect = [&](core::Rank finder, core::VertexId v,
                                           core::VertexId u, core::VertexId w) {
        std::vector<core::VertexId> t = {v, u, w};
        std::sort(t.begin(), t.end());
        found[finder].push_back(core::Triangle{t[0], t[1], t[2]});
        if (first_find_thread[finder] == std::thread::id{}) {
            first_find_thread[finder] = std::this_thread::get_id();
        }
    };
    try {
        switch (kind) {
            case Query::kCount:
                report.count = test::build_and_dispatch(sim, views, spec);
                break;
            case Query::kEnumerate:
                report.count = test::build_and_dispatch(sim, views, spec, &collect);
                break;
            case Query::kLcc: {
                core::HubIndices hubs;
                if (core::algorithm_supports_sink(spec.algorithm)) {
                    hubs = test::build_preprocessing(sim, views, spec.algorithm,
                                                     spec.options);
                }
                auto lcc =
                    core::compute_distributed_lcc(sim, views, g, spec, nullptr, &hubs);
                report.count = lcc.count;
                report.delta = std::move(lcc.delta);
                report.lcc = std::move(lcc.lcc);
                report.postprocess_time = lcc.postprocess_time;
                break;
            }
            case Query::kApprox: {
                const auto hubs = test::build_preprocessing(
                    sim, views, core::Algorithm::kCetric, spec.options);
                const auto amq = core::count_triangles_cetric_amq(sim, views, spec, {},
                                                                  nullptr, &hubs);
                report.count = amq.metrics;
                report.estimated_triangles = amq.estimated_triangles;
                report.exact_type12 = amq.exact_type12;
                report.estimated_type3 = amq.estimated_type3;
                break;
            }
            case Query::kStream: break;
        }
    } catch (const net::OomError&) {
        report.count.oom = true;
        core::fill_metrics(sim, report.count);
    } catch (const net::FaultError& e) {
        report.error = make_error(e.code(), e.what());
        core::fill_metrics(sim, report.count);
    }
    for (auto& bucket : found) {
        report.triangles.insert(report.triangles.end(), bucket.begin(), bucket.end());
        report.found_per_rank.push_back(bucket.size());
    }
    report.phases = net::aggregate_phase_times(sim.phases());
    for (const auto& metrics : sim.rank_metrics()) {
        report.total_compute_ops += metrics.compute_ops;
        report.max_compute_ops = std::max(report.max_compute_ops, metrics.compute_ops);
    }
    report.faults = stats;
    std::set<std::thread::id> finders(first_find_thread.begin(), first_find_thread.end());
    finders.erase(std::thread::id{});  // ranks that found nothing
    out.finder_threads = finders.size();
    out.ranks.assign(sim.rank_metrics().begin(), sim.rank_metrics().end());
    out.phases.assign(sim.phases().begin(), sim.phases().end());
    return out;
}

void expect_same_outcome(const Outcome& serial, const Outcome& parallel,
                         const std::string& what) {
    test::expect_identical_reports(serial.report, parallel.report, what);
    EXPECT_EQ(serial.report.faults, parallel.report.faults) << what;
    test::expect_identical_machine(serial.ranks, parallel.ranks, serial.phases,
                                   parallel.phases, what);
}

struct GridCell {
    core::Algorithm algorithm;
    graph::Rank ranks;
};

class ParallelSuperstepGrid : public ::testing::TestWithParam<GridCell> {};

constexpr Query kKinds[] = {Query::kCount, Query::kLcc, Query::kEnumerate,
                            Query::kApprox};
constexpr Faults kInjected[] = {Faults::kNone, Faults::kDrop, Faults::kDuplicate,
                                Faults::kBitFlip};

TEST_P(ParallelSuperstepGrid, SerialAndParallelRunsAreBitIdentical) {
    const auto [algorithm, ranks] = GetParam();
    for (const auto kernel : seq::all_intersect_kinds()) {
        for (const int flags : {0, 1, 2, 3}) {
            core::RunSpec spec;
            spec.algorithm = algorithm;
            spec.num_ranks = ranks;
            spec.options.intersect = kernel;
            spec.options.compress_neighborhoods = (flags & 1) != 0;
            spec.options.detect_termination = (flags & 2) != 0;
            for (const auto faults : kInjected) {
                for (const auto kind : kKinds) {
                    // approx always runs CETRIC-AMQ: sweep it once.
                    if (kind == Query::kApprox && algorithm != core::Algorithm::kCetric) {
                        continue;
                    }
                    const std::string what =
                        query_name(kind) + " kernel=" + seq::intersect_kind_name(kernel)
                        + " compress=" + std::to_string(flags & 1)
                        + " detect=" + std::to_string(flags >> 1)
                        + " faults=" + fault_spec(faults);
                    const auto& g = skewed_graph();
                    const auto serial = run(g, spec, kind, faults, nullptr);
                    const auto parallel = run(g, spec, kind, faults, &three_helpers());
                    expect_same_outcome(serial, parallel, what);
                    if (::testing::Test::HasFailure()) { return; }
                }
            }
        }
    }
}

std::vector<GridCell> grid_cells() {
    std::vector<GridCell> cells;
    for (const auto algorithm : core::all_algorithms()) {
        for (const graph::Rank ranks : {1u, 4u, 7u, 16u}) {
            cells.push_back(GridCell{algorithm, ranks});
        }
    }
    return cells;
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, ParallelSuperstepGrid, ::testing::ValuesIn(grid_cells()),
    [](const ::testing::TestParamInfo<GridCell>& cell) {
        std::string name = core::algorithm_name(cell.param.algorithm) + "_p"
                           + std::to_string(cell.param.ranks);
        for (char& c : name) {
            if (c == '-') { c = '_'; }
        }
        return name;
    });

TEST(ParallelSupersteps, OutOfMemoryAndFailFastReportsMatch) {
    const auto& g = skewed_graph();
    for (const auto algorithm : core::all_algorithms()) {
        for (const auto kind : {Query::kCount, Query::kLcc, Query::kEnumerate}) {
            core::RunSpec spec;
            spec.algorithm = algorithm;
            spec.num_ranks = 7;
            spec.network.memory_limit_words = 64;
            const std::string what = core::algorithm_name(algorithm) + " "
                                     + query_name(kind) + " memory_limit_words=64";
            const auto serial = run(g, spec, kind, Faults::kNone, nullptr);
            const auto parallel = run(g, spec, kind, Faults::kNone, &three_helpers());
            expect_same_outcome(serial, parallel, what);
        }
    }
    core::RunSpec spec;
    spec.num_ranks = 7;
    spec.network.memory_limit_words = 64;
    const auto approx = run(g, spec, Query::kApprox, Faults::kNone, &three_helpers());
    EXPECT_TRUE(approx.report.count.oom);
    expect_same_outcome(run(g, spec, Query::kApprox, Faults::kNone, nullptr), approx,
                        "approx memory_limit_words=64");

    // Fail-fast under drops: the first lost frame ends the run with a typed
    // error, partway through a superstep.
    bool failed = false;
    for (const auto algorithm : core::all_algorithms()) {
        core::RunSpec failing;
        failing.algorithm = algorithm;
        failing.num_ranks = 16;
        const auto serial =
            run(g, failing, Query::kCount, Faults::kDropFailFast, nullptr);
        const auto parallel =
            run(g, failing, Query::kCount, Faults::kDropFailFast, &three_helpers());
        expect_same_outcome(serial, parallel,
                            core::algorithm_name(algorithm) + " fail-fast");
        failed = failed || !serial.report.error.ok();
    }
    EXPECT_TRUE(failed) << "no fail-fast cell failed — the case tests nothing";
}

TEST(ParallelSupersteps, LargeLocalPhasesOverlapAndMatch) {
    // Enough local work per rank that the helpers join in: the grid above
    // runs tiny ranks the calling thread often finishes alone.
    const auto g = gen::generate_rgg2d_local(
        4096, gen::rgg2d_radius_for_degree(4096, 16.0), /*seed=*/41);
    std::size_t most_threads = 0;
    for (const auto algorithm : core::all_algorithms()) {
        for (const graph::Rank ranks : {4u, 7u}) {
            for (const auto kind : kKinds) {
                if (kind == Query::kApprox && algorithm != core::Algorithm::kCetric) {
                    continue;
                }
                core::RunSpec spec;
                spec.algorithm = algorithm;
                spec.num_ranks = ranks;
                spec.options.intersect = seq::IntersectKind::kAdaptive;
                const std::string what = core::algorithm_name(algorithm) + " p"
                                         + std::to_string(ranks) + " " + query_name(kind);
                const auto serial = run(g, spec, kind, Faults::kDuplicate, nullptr);
                const auto parallel =
                    run(g, spec, kind, Faults::kDuplicate, &three_helpers());
                expect_same_outcome(serial, parallel, what);
                EXPECT_EQ(serial.finder_threads, kind == Query::kEnumerate
                                                         && core::algorithm_supports_sink(
                                                             algorithm)
                                                     ? 1u
                                                     : 0u)
                    << what;
                most_threads = std::max(most_threads, parallel.finder_threads);
            }
        }
    }
    EXPECT_GT(most_threads, 1u) << "no enumerate ran its ranks on more than one thread";
}

TEST(ParallelSupersteps, LowestThrowingRankWinsAndHigherRanksRollBack) {
    constexpr graph::Rank kRanks = 8;
    util::WorkerPool* const inline_ranks = nullptr;
    for (util::WorkerPool* pool : {inline_ranks, &three_helpers()}) {
        SCOPED_TRACE(pool == nullptr ? "inline" : "pool");
        net::Simulator sim(kRanks, net::NetworkConfig::supermuc_like());
        sim.set_worker_pool(pool);
        // Pooled, ranks 0–3 meet at a barrier, so they run at once on the
        // four threads; rank 3 then throws first in time, rank 2 later.
        std::optional<std::barrier<>> together;
        if (pool != nullptr) { together.emplace(4); }
        try {
            sim.run_phase("throwing", [&](net::RankHandle& self) {
                const auto r = self.rank();
                self.charge_ops(10);
                self.send((r + 1) % kRanks, net::WordVec{r});
                if (together && r < 4) { together->arrive_and_wait(); }
                if (r == 2) {
                    if (together) {
                        std::this_thread::sleep_for(std::chrono::milliseconds(5));
                    }
                    throw std::runtime_error("rank 2");
                }
                if (r == 3) { throw std::runtime_error("rank 3"); }
                self.charge_ops(5);
            }, {});
            FAIL() << "the phase should have thrown";
        } catch (const std::runtime_error& e) {
            EXPECT_EQ(std::string(e.what()), "rank 2");
        }
        const auto metrics = sim.rank_metrics();
        for (graph::Rank r = 0; r < kRanks; ++r) {
            // Below the throw: complete. The thrower: what it did before
            // throwing. Above it — rank 3 ran and threw, later ranks may
            // have run — nothing, as if never run.
            const std::uint64_t ops = r < 2 ? 15 : r == 2 ? 10 : 0;
            EXPECT_EQ(metrics[r].compute_ops, ops) << "rank " << r;
            EXPECT_EQ(metrics[r].messages_sent, r <= 2 ? 1u : 0u) << "rank " << r;
        }
        EXPECT_TRUE(sim.phases().empty());
        // The simulator stays usable: the next phase starts from the
        // committed state.
        sim.run_phase("after", [](net::RankHandle& self) { self.charge_ops(1); }, {});
        EXPECT_EQ(sim.rank_metrics()[3].compute_ops, 1u);
    }
}

TEST(ParallelSupersteps, TerminationDetectorIdleHooksOverlap) {
    // One rank per pool thread, and every idle round's hooks meet at a
    // barrier: the detectors' per-rank flags are written concurrently (the
    // packed std::vector<bool> race this guards against).
    constexpr graph::Rank kRanks = 4;
    auto detect = [](util::WorkerPool* pool) {
        net::Simulator sim(kRanks, net::NetworkConfig::supermuc_like());
        sim.set_worker_pool(pool);
        net::TerminationDetector detector(kRanks);
        std::optional<std::barrier<>> together;
        if (pool != nullptr) { together.emplace(std::ptrdiff_t{kRanks}); }
        sim.run_phase(
            "detect",
            [&](net::RankHandle& self) {
                for (graph::Rank dest = 0; dest < kRanks; ++dest) {
                    if (dest == self.rank()) { continue; }
                    detector.note_sent(self.rank());
                    self.send(dest, net::WordVec{self.rank()}, 7);
                }
            },
            [&](net::RankHandle& self, net::Rank src, int tag,
                std::span<const std::uint64_t> payload) {
                if (detector.handle(self, src, tag, payload)) { return; }
                detector.note_received(self.rank());
            },
            [&](net::RankHandle& self) {
                if (together) { together->arrive_and_wait(); }
                detector.on_idle(self);
            });
        EXPECT_TRUE(detector.all_terminated());
        return std::make_pair(detector.waves(), sim.time());
    };
    EXPECT_EQ(detect(nullptr), detect(&three_helpers()));
}

TEST(ParallelSupersteps, DeliveryOrderMatchesRankByRankSends) {
    constexpr graph::Rank kRanks = 9;
    auto trace = [](util::WorkerPool* pool) {
        net::Simulator sim(kRanks, net::NetworkConfig::supermuc_like());
        sim.set_worker_pool(pool);
        std::vector<std::uint64_t> order;
        sim.run_phase(
            "fan-in",
            [](net::RankHandle& self) {
                // Equal-length messages to rank 0 tie on arrival time; the
                // sequence number decides, so commit order is visible.
                for (std::uint64_t i = 0; i < 3; ++i) {
                    self.send(0, net::WordVec{self.rank() * 10 + i});
                }
            },
            [&](net::RankHandle&, net::Rank, int,
                std::span<const std::uint64_t> payload) { order.push_back(payload[0]); },
            [&](net::RankHandle& self) {
                if (order.size() == 3 * kRanks && self.rank() % 2 == 1) {
                    self.send(0, net::WordVec{1000 + self.rank()});
                }
            });
        return order;
    };
    EXPECT_EQ(trace(nullptr), trace(&three_helpers()));
}

TEST(ParallelSupersteps, EngineDirectQueriesMatchServedOnes) {
    // Direct Engine queries run their ranks on the process-wide pool, served
    // ones inline on the worker: the same Report either way.
    const auto& g = skewed_graph();
    Config config;
    config.num_ranks = 7;
    config.fault_spec = "seed=3;drop=0.05;dup=0.05";
    Engine engine(g, config);
    auto session = engine.serve(ServeOptions{2, 0});
    for (const auto kind : kKinds) {
        ServeRequest request;
        request.query = kind;
        auto served = session.submit(request);
        Report direct;
        switch (kind) {
            case Query::kCount: direct = engine.count(); break;
            case Query::kLcc: direct = engine.lcc(); break;
            case Query::kEnumerate: direct = engine.enumerate(); break;
            default: direct = engine.approx_count(); break;
        }
        const Report report = served.get();
        test::expect_identical_reports(direct, report, query_name(kind));
        EXPECT_EQ(direct.faults, report.faults) << query_name(kind);
    }
}

}  // namespace
}  // namespace katric
