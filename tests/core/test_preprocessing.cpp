// The one preprocessing build (core::run_preprocessing) and its replay,
// checked per generator family against oracles computed from the global
// graph:
//   * the dense ghost-degree exchange delivers every ghost's true degree,
//   * the oriented rows follow the global degree order, each edge once,
//   * the hub indices it hands out index exactly the qualifying oriented
//     rows, and a host-side rebuild (the Engine's per-threshold cache fill)
//     yields the same indices and build costs,
//   * the recorded ledger replays metric-identically, and no ledger charges
//     nothing, and
//   * an Engine that builds once on first use answers every query kind like
//     a real build when charged, and with the same payloads when not.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "engine.hpp"
#include "seq/edge_iterator.hpp"
#include "support/expect_count.hpp"
#include "support/reference.hpp"
#include "support/test_graphs.hpp"

namespace katric {
namespace {

using core::Algorithm;
using graph::VertexId;

/// Adaptive kernels with a low hub threshold, so even the sparse families
/// have hub rows to index.
Config family_config() {
    Config config;
    config.num_ranks = 4;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    config.options.hub_threshold = 2;
    return config;
}

/// The global degree order ≺ every view must agree with.
bool globally_precedes(const graph::CsrGraph& g, VertexId u, VertexId v) {
    return g.degree(u) != g.degree(v) ? g.degree(u) < g.degree(v) : u < v;
}

/// One real build: distributed views, the simulator it was charged to, the
/// hub indices it handed out and the ledger it recorded.
struct Built {
    Built(const graph::CsrGraph& g, const Config& config)
        : spec(config.run_spec()),
          views(graph::distribute(g, core::make_partition(g, spec))),
          sim(spec.num_ranks, spec.network),
          hubs(core::run_preprocessing(sim, views, spec.options, &ledger)) {}

    core::RunSpec spec;
    std::vector<graph::DistGraph> views;
    net::Simulator sim;
    core::PreprocessCosts ledger;
    core::HubIndices hubs;
};

core::CountResult metrics_of(const net::Simulator& sim) {
    core::CountResult result;
    core::fill_metrics(sim, result);
    return result;
}

class PreprocessingFamilyTest : public ::testing::TestWithParam<std::size_t> {
protected:
    [[nodiscard]] const test::FamilyCase& family_case() const {
        static const auto cases = test::family_cases();
        return cases[GetParam()];
    }
};

TEST_P(PreprocessingFamilyTest, ExchangeDeliversEveryGhostsGlobalDegree) {
    const auto& g = family_case().graph;
    const Built built(g, family_config());
    for (const auto& view : built.views) {
        ASSERT_TRUE(view.ghost_degrees_ready()) << "rank " << view.rank();
        for (const VertexId ghost : view.ghost_ids()) {
            EXPECT_EQ(view.degree(ghost), g.degree(ghost))
                << "rank " << view.rank() << " ghost " << ghost;
        }
    }
}

TEST_P(PreprocessingFamilyTest, OrientationFollowsGlobalDegreeOrder) {
    const auto& g = family_case().graph;
    const Built built(g, family_config());
    graph::EdgeId oriented_edges = 0;
    for (const auto& view : built.views) {
        ASSERT_TRUE(view.oriented_built()) << "rank " << view.rank();
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            std::vector<VertexId> expected;
            for (const VertexId u : g.neighbors(v)) {
                if (globally_precedes(g, v, u)) { expected.push_back(u); }
            }
            const auto row = view.out_neighbors(v);
            EXPECT_EQ(std::vector<VertexId>(row.begin(), row.end()), expected)
                << "rank " << view.rank() << " A(" << v << ")";
            oriented_edges += row.size();
        }
        // A ghost's rewired row: its local neighbours it precedes.
        for (std::size_t gi = 0; gi < view.num_ghosts(); ++gi) {
            const VertexId ghost = view.ghost_id(gi);
            std::vector<VertexId> expected;
            for (const VertexId u : g.neighbors(ghost)) {
                if (view.is_local(u) && globally_precedes(g, ghost, u)) {
                    expected.push_back(u);
                }
            }
            const auto row = view.ghost_out_neighbors(gi);
            EXPECT_EQ(std::vector<VertexId>(row.begin(), row.end()), expected)
                << "rank " << view.rank() << " A(ghost " << ghost << ")";
        }
    }
    // Every undirected edge is oriented out of exactly one endpoint.
    EXPECT_EQ(oriented_edges, g.num_edges());
}

TEST_P(PreprocessingFamilyTest, HubIndicesIndexExactlyTheQualifyingRows) {
    const auto& g = family_case().graph;
    const auto config = family_config();
    const Built built(g, config);
    ASSERT_EQ(built.hubs.per_rank.size(), built.views.size());
    for (const auto& view : built.views) {
        const auto& index = built.hubs.per_rank[view.rank()];
        std::vector<VertexId> rows;
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            rows.push_back(v);
        }
        rows.insert(rows.end(), view.ghost_ids().begin(), view.ghost_ids().end());
        std::size_t qualifying = 0;
        for (const VertexId v : rows) {
            const auto row = view.a_set(v);
            const bool hub = row.size() >= config.options.hub_threshold;
            qualifying += hub ? 1 : 0;
            ASSERT_EQ(index.contains_hub(v), hub)
                << "rank " << view.rank() << " row " << v;
            if (!hub) { continue; }
            EXPECT_NE(index.lookup(v, row), nullptr)
                << "a hub's bitmap is keyed to the view's own row storage";
            for (VertexId x = 0; x < g.num_vertices(); ++x) {
                const bool member = std::binary_search(row.begin(), row.end(), x);
                ASSERT_EQ(index.probe(v, x), member)
                    << "rank " << view.rank() << " hub " << v << " probe " << x;
            }
        }
        ASSERT_LE(qualifying, index.config().max_hubs)
            << "the top-k cap stays out of play";
        EXPECT_EQ(index.num_hubs(), qualifying) << "rank " << view.rank();
    }
}

TEST_P(PreprocessingFamilyTest, HostSideHubRebuildMatchesChargedBuild) {
    const auto& g = family_case().graph;
    const auto config = family_config();
    const Built built(g, config);
    // The Engine fills its cache for a further hub threshold host-side over
    // the already-built views; it must equal what the charged build handed out.
    const auto rebuilt = core::build_hub_indices(built.views, config.options);
    EXPECT_EQ(rebuilt.build_ops, built.hubs.build_ops);
    ASSERT_EQ(rebuilt.per_rank.size(), built.hubs.per_rank.size());
    for (const auto& view : built.views) {
        const auto& charged = built.hubs.per_rank[view.rank()];
        const auto& host = rebuilt.per_rank[view.rank()];
        EXPECT_EQ(host.config(), charged.config()) << "rank " << view.rank();
        EXPECT_EQ(host.num_hubs(), charged.num_hubs()) << "rank " << view.rank();
        for (const VertexId ghost : view.ghost_ids()) {
            EXPECT_EQ(host.contains_hub(ghost), charged.contains_hub(ghost))
                << "rank " << view.rank() << " ghost " << ghost;
        }
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            EXPECT_EQ(host.contains_hub(v), charged.contains_hub(v))
                << "rank " << view.rank() << " local " << v;
        }
    }
}

TEST_P(PreprocessingFamilyTest, RecordedLedgerReplaysMetricIdentically) {
    const auto& g = family_case().graph;
    const Built built(g, family_config());
    ASSERT_TRUE(built.ledger.recorded);
    net::Simulator replayed(built.spec.num_ranks, built.spec.network);
    core::apply_preprocessing(replayed, built.views, Algorithm::kCetric,
                              built.spec.options, &built.ledger, &built.hubs);
    test::expect_identical_counts(metrics_of(replayed), metrics_of(built.sim),
                                  family_case().name);
    const auto real = built.sim.phases();
    const auto replay = replayed.phases();
    ASSERT_EQ(replay.size(), real.size());
    for (std::size_t i = 0; i < real.size(); ++i) {
        EXPECT_EQ(replay[i].name, real[i].name) << "phase " << i;
        EXPECT_EQ(replay[i].start_time, real[i].start_time) << real[i].name;
        EXPECT_EQ(replay[i].end_time, real[i].end_time) << real[i].name;
    }
    EXPECT_GT(metrics_of(replayed).preprocessing_time, 0.0);
}

TEST_P(PreprocessingFamilyTest, MissingLedgerChargesNothing) {
    const auto& g = family_case().graph;
    const Built built(g, family_config());
    net::Simulator skipped(built.spec.num_ranks, built.spec.network);
    core::apply_preprocessing(skipped, built.views, Algorithm::kCetric,
                              built.spec.options, nullptr, &built.hubs);
    const auto metrics = metrics_of(skipped);
    EXPECT_EQ(skipped.time(), 0.0);
    EXPECT_TRUE(skipped.phases().empty());
    EXPECT_EQ(metrics.total_messages_sent, 0u);
    EXPECT_EQ(metrics.total_words_sent, 0u);
}

TEST_P(PreprocessingFamilyTest, ChargedEngineMatchesRealBuildForEveryQueryKind) {
    const auto& g = family_case().graph;
    const auto config = family_config();
    Engine engine(g, config);
    EXPECT_EQ(engine.preprocess_builds(), 0u) << "built on first use";
    const auto expected = seq::count_edge_iterator(g).triangles;
    for (const auto algorithm : core::all_algorithms()) {
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        const auto report = engine.count(algorithm);
        EXPECT_EQ(report.count.triangles, expected) << core::algorithm_name(algorithm);
        test::expect_identical_counts(report.count, test::reference_count(g, spec),
                                      core::algorithm_name(algorithm));
    }
    auto spec = config.run_spec();
    spec.algorithm = Algorithm::kCetric;
    const auto lcc = engine.lcc(Algorithm::kCetric);
    const auto lcc_reference = test::reference_lcc(g, spec);
    test::expect_identical_counts(lcc.count, lcc_reference.count, "lcc");
    EXPECT_EQ(lcc.delta, lcc_reference.delta);
    EXPECT_EQ(lcc.lcc, lcc_reference.lcc);

    const auto listed = engine.enumerate();
    const auto enumerate_reference = test::reference_enumerate(g, config.run_spec());
    test::expect_identical_counts(listed.count, enumerate_reference.count, "enumerate");
    EXPECT_TRUE(listed.triangles == enumerate_reference.triangles);
    EXPECT_EQ(listed.triangles.size(), expected);
    EXPECT_EQ(listed.found_per_rank, enumerate_reference.found_per_rank);
    EXPECT_EQ(engine.preprocess_builds(), 1u);
}

TEST_P(PreprocessingFamilyTest, SkippedEngineKeepsEveryPayload) {
    const auto& g = family_case().graph;
    auto config = family_config();
    config.charge_preprocessing = false;
    Engine engine(g, config);
    for (const auto algorithm : core::all_algorithms()) {
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        const auto report = engine.count(algorithm);
        const auto reference = test::reference_count(g, spec);
        const auto what = core::algorithm_name(algorithm);
        EXPECT_EQ(report.count.triangles, reference.triangles) << what;
        EXPECT_EQ(report.count.local_phase_triangles, reference.local_phase_triangles)
            << what;
        EXPECT_EQ(report.count.global_phase_triangles, reference.global_phase_triangles)
            << what;
        EXPECT_EQ(report.count.preprocessing_time, 0.0) << what;
    }
    auto spec = config.run_spec();
    spec.algorithm = Algorithm::kCetric;
    const auto lcc = engine.lcc(Algorithm::kCetric);
    const auto lcc_reference = test::reference_lcc(g, spec);
    EXPECT_EQ(lcc.delta, lcc_reference.delta);
    EXPECT_EQ(lcc.lcc, lcc_reference.lcc);
    EXPECT_EQ(lcc.count.preprocessing_time, 0.0);

    const auto listed = engine.enumerate();
    const auto enumerate_reference = test::reference_enumerate(g, config.run_spec());
    EXPECT_TRUE(listed.triangles == enumerate_reference.triangles);
    EXPECT_EQ(listed.found_per_rank, enumerate_reference.found_per_rank);
    EXPECT_EQ(listed.count.preprocessing_time, 0.0);
    EXPECT_EQ(engine.preprocess_builds(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PreprocessingFamilyTest,
                         ::testing::Range<std::size_t>(0, 7),
                         [](const auto& name_info) {
                             static const auto cases = test::family_cases();
                             return cases[name_info.param].name;
                         });

}  // namespace
}  // namespace katric
