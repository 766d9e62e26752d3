#include "core/hybrid.hpp"

#include <gtest/gtest.h>

#include "core/runner.hpp"
#include "engine.hpp"
#include "seq/edge_iterator.hpp"
#include "support/engine_query.hpp"
#include "support/test_graphs.hpp"

namespace katric::core {
namespace {

TEST(ThreadBinner, SingleThreadIsSequentialSum) {
    ThreadBinner binner(1);
    for (std::uint64_t i = 1; i <= 100; ++i) { binner.add_task(i); }
    EXPECT_EQ(binner.makespan_ops(), 5050u);
    EXPECT_EQ(binner.total_ops(), 5050u);
}

TEST(ThreadBinner, MakespanBounds) {
    // Greedy chunked assignment: total/t ≤ makespan ≤ total.
    for (int threads : {2, 4, 8}) {
        ThreadBinner binner(threads, 4);
        std::uint64_t total = 0;
        for (std::uint64_t i = 0; i < 1000; ++i) {
            const std::uint64_t ops = (i * 37) % 100 + 1;
            binner.add_task(ops);
            total += ops;
        }
        EXPECT_EQ(binner.total_ops(), total);
        EXPECT_GE(binner.makespan_ops(), total / static_cast<std::uint64_t>(threads));
        EXPECT_LT(binner.makespan_ops(),
                  total / static_cast<std::uint64_t>(threads) * 3 / 2 + 500);
    }
}

TEST(ThreadBinner, PartialChunkCounted) {
    ThreadBinner binner(2, 1000);  // chunk never fills
    binner.add_task(10);
    binner.add_task(20);
    EXPECT_EQ(binner.makespan_ops(), 30u);
}

class HybridThreadsTest : public ::testing::TestWithParam<int> {};

TEST_P(HybridThreadsTest, CountsStayExact) {
    const int threads = GetParam();
    const auto g = gen::generate_rhg(1024, 10.0, 2.8, 15);
    const auto expected = seq::count_edge_iterator(g).triangles;
    for (const Algorithm algorithm :
         {Algorithm::kDitric, Algorithm::kDitric2, Algorithm::kCetric}) {
        SCOPED_TRACE(algorithm_name(algorithm));
        RunSpec spec;
        spec.algorithm = algorithm;
        spec.num_ranks = 4;
        spec.options.threads = threads;
        EXPECT_EQ(test::engine_count(g, spec).triangles, expected);
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, HybridThreadsTest, ::testing::Values(1, 2, 6, 12));

TEST(Hybrid, MoreThreadsShrinkLocalPhaseTime) {
    const auto g = gen::generate_rmat(12, 1 << 15, 21);
    RunSpec spec;
    spec.algorithm = Algorithm::kCetric;
    spec.num_ranks = 4;
    spec.options.threads = 1;
    const auto single = test::engine_count(g, spec);
    spec.options.threads = 12;
    const auto hybrid = test::engine_count(g, spec);
    EXPECT_EQ(single.triangles, hybrid.triangles);
    EXPECT_LT(hybrid.local_time, single.local_time);
    EXPECT_GT(hybrid.local_time, single.local_time / 14.0);  // no superlinear magic
}

TEST(Hybrid, AmqLocalPhaseMatchesCetric) {
    // CETRIC-AMQ's exact local phase is CETRIC's, hybrid threads included.
    const auto g = gen::generate_rmat(11, 1 << 14, 19);
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        Config config;
        config.num_ranks = 4;
        config.options.threads = threads;
        Engine engine(g, config);
        const auto cetric = engine.count(Algorithm::kCetric);
        const auto approx = engine.approx_count();
        ASSERT_TRUE(cetric.ok());
        ASSERT_TRUE(approx.ok());
        EXPECT_EQ(approx.exact_type12, cetric.count.local_phase_triangles);
        EXPECT_EQ(approx.count.local_time, cetric.count.local_time);
    }
}

TEST(Hybrid, FewerFatterRanksReduceCommunicationVolume) {
    // Fixed "cores" = ranks × threads: the hybrid configuration with fewer
    // MPI ranks ships less data (the appendix's 84% volume reduction effect).
    const auto g = gen::generate_rhg(4096, 12.0, 2.8, 23);
    RunSpec flat;
    flat.algorithm = Algorithm::kDitric;
    flat.num_ranks = 48;
    flat.options.threads = 1;
    RunSpec hybrid = flat;
    hybrid.num_ranks = 4;
    hybrid.options.threads = 12;
    const auto flat_run = test::engine_count(g, flat);
    const auto hybrid_run = test::engine_count(g, hybrid);
    EXPECT_EQ(flat_run.triangles, hybrid_run.triangles);
    EXPECT_LT(hybrid_run.total_words_sent, flat_run.total_words_sent / 2);
}

}  // namespace
}  // namespace katric::core
