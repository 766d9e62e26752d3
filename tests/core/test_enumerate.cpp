#include "core/enumerate.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "engine.hpp"
#include "fault/fault_plan.hpp"
#include "gen/rmat.hpp"
#include "seq/edge_iterator.hpp"
#include "support/engine_query.hpp"
#include "support/test_graphs.hpp"

namespace katric::core {
namespace {

std::set<Triangle> brute_force_triangles(const graph::CsrGraph& g) {
    std::set<Triangle> result;
    for (VertexId a = 0; a < g.num_vertices(); ++a) {
        for (VertexId b : g.neighbors(a)) {
            if (b <= a) { continue; }
            for (VertexId c : g.neighbors(b)) {
                if (c > b && g.has_edge(a, c)) { result.insert(Triangle{a, b, c}); }
            }
        }
    }
    return result;
}

class EnumerateTest
    : public ::testing::TestWithParam<std::tuple<Algorithm, std::size_t, Rank>> {};

TEST_P(EnumerateTest, ExactlyOnceAndComplete) {
    const auto [algorithm, family_index, p] = GetParam();
    static const auto cases = katric::test::family_cases();
    const auto& g = cases[family_index].graph;

    RunSpec spec;
    spec.algorithm = algorithm;
    spec.num_ranks = p;
    const auto result = test::engine_enumerate(g, spec);

    const auto expected = brute_force_triangles(g);
    ASSERT_EQ(result.triangles.size(), expected.size());
    std::size_t index = 0;
    for (const auto& t : expected) {
        EXPECT_EQ(result.triangles[index], t) << "at index " << index;
        ++index;
    }
    // The per-rank emission counts partition the full set.
    const auto emitted = std::accumulate(result.found_per_rank.begin(),
                                         result.found_per_rank.end(), std::size_t{0});
    EXPECT_EQ(emitted, expected.size());
}

INSTANTIATE_TEST_SUITE_P(
    AlgorithmsFamiliesRanks, EnumerateTest,
    ::testing::Combine(::testing::Values(Algorithm::kDitric, Algorithm::kCetric,
                                         Algorithm::kCetric2),
                       ::testing::Values<std::size_t>(0, 1, 4, 5),
                       ::testing::Values<Rank>(1, 4, 9)));

TEST(Enumerate, CompleteGraphListsAllTriples) {
    RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = 5;
    const auto result = test::engine_enumerate(katric::test::complete_graph(10), spec);
    EXPECT_EQ(result.triangles.size(), 120u);  // C(10,3)
    EXPECT_EQ(result.triangles.front(), (Triangle{0, 1, 2}));
    EXPECT_EQ(result.triangles.back(), (Triangle{7, 8, 9}));
}

TEST(Enumerate, TriangleFreeGraphIsEmpty) {
    RunSpec spec;
    spec.algorithm = Algorithm::kDitric2;
    spec.num_ranks = 3;
    const auto result = test::engine_enumerate(katric::test::petersen_graph(), spec);
    EXPECT_TRUE(result.triangles.empty());
    EXPECT_EQ(result.count.triangles, 0u);
}

TEST(Enumerate, FailedRunReturnsNoTriangles) {
    // Fail-fast under drops: the first lost frame ends the run with a typed
    // error partway through. What it found by then is no answer, so the
    // list stays empty; the per-rank find counts and the count metrics
    // still record how far it got.
    const auto g = gen::generate_rmat(7, graph::EdgeId{6} << 7, /*seed=*/23);
    Config config;
    config.num_ranks = 16;
    config.algorithm = Algorithm::kCetric;
    config.fault_spec = "seed=5;drop=0.1";
    config.recovery = fault::RecoveryPolicy::kFailFast;
    Engine engine(g, config);
    const Report report = engine.enumerate();
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.error.domain, Error::Domain::kNet);
    EXPECT_TRUE(report.triangles.empty());
    ASSERT_EQ(report.found_per_rank.size(), config.num_ranks);
    const auto found = std::accumulate(report.found_per_rank.begin(),
                                       report.found_per_rank.end(), std::size_t{0});
    EXPECT_GT(found, 0u) << "the run failed before finding anything — the case "
                            "tests nothing";
    EXPECT_GT(report.count.total_messages_sent, 0u);
    EXPECT_GT(report.count.total_time, 0.0);

    // The same engine without faults lists every triangle.
    Config reliable = config;
    reliable.fault_spec.clear();
    const Report listed = Engine(g, reliable).enumerate();
    ASSERT_TRUE(listed.ok());
    EXPECT_EQ(listed.triangles.size(), listed.count.triangles);
}

}  // namespace
}  // namespace katric::core
