// katric::Engine: the session facade. The load-bearing property is
// reuse-equivalence — N queries against one built Engine must be
// bit-identical to N real-build runs (distribute, preprocess on the query's
// own machine, dispatch), across every algorithm, both partition
// strategies, interleaved query kinds, and the hub-bitmap kernels whose
// per-rank indices the engine caches. Plus the typed sink-precondition
// error and the stream promotion.

#include <gtest/gtest.h>

#include <algorithm>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "seq/edge_iterator.hpp"
#include "stream/edge_stream.hpp"
#include "support/engine_query.hpp"
#include "support/expect_count.hpp"
#include "support/reference.hpp"
#include "support/test_graphs.hpp"

namespace katric {
namespace {

using core::Algorithm;
using core::CountResult;

/// The acceptance property: one Engine, every algorithm twice (the second
/// pass catches state the first pass left behind), each query compared
/// against a fresh real-build run.
TEST(EngineEquivalence, AlgorithmSweepMatchesRealBuildAcrossPartitions) {
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 7);
    for (const auto partition : {core::PartitionStrategy::kBalancedEdges,
                                 core::PartitionStrategy::kUniformVertices}) {
        Config config;
        config.num_ranks = 4;
        config.partition = partition;
        Engine engine(g, config);
        for (int pass = 0; pass < 2; ++pass) {
            for (const auto algorithm : core::all_algorithms()) {
                const auto report = engine.count(algorithm);
                auto spec = config.run_spec();
                spec.algorithm = algorithm;
                const auto reference = test::reference_count(g, spec);
                test::expect_identical_counts(
                    report.count, reference,
                    core::algorithm_name(algorithm) + " pass " + std::to_string(pass));
            }
        }
        EXPECT_EQ(engine.build_passes(), 1u);
        EXPECT_EQ(engine.queries_run(), 2 * core::all_algorithms().size());
    }
}

/// Hub-bitmap kernels intersect through the engine's cached hub indices;
/// every query's replay must charge the hub build like a real build.
TEST(EngineEquivalence, AdaptiveKernelQueriesStayIdentical) {
    const auto g = test::complete_graph(24);
    Config config;
    config.num_ranks = 3;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    Engine engine(g, config);
    for (const auto algorithm :
         {Algorithm::kCetric, Algorithm::kDitric, Algorithm::kCetric2}) {
        const auto report = engine.count(algorithm);
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        test::expect_identical_counts(report.count, test::reference_count(g, spec),
                                      "adaptive " + core::algorithm_name(algorithm));
    }
}

TEST(EngineEquivalence, MixedQueryKindsMatchRealBuildTwins) {
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 13);
    Config config;
    config.algorithm = Algorithm::kCetric;
    config.num_ranks = 4;
    Engine engine(g, config);

    // count → lcc → enumerate → approx → count again, all on one build.
    const auto count1 = engine.count();
    const auto lcc = engine.lcc();
    const auto enumerated = engine.enumerate();
    const auto approx = engine.approx_count();
    const auto count2 = engine.count();

    test::expect_identical_counts(count1.count, count2.count, "count repeatability");

    const auto lcc_reference = test::reference_lcc(g, config.run_spec());
    test::expect_identical_counts(lcc.count, lcc_reference.count, "lcc");
    EXPECT_EQ(lcc.delta, lcc_reference.delta);
    EXPECT_EQ(lcc.lcc, lcc_reference.lcc);
    EXPECT_EQ(lcc.postprocess_time, lcc_reference.postprocess_time);

    const auto enum_reference = test::reference_enumerate(g, config.run_spec());
    test::expect_identical_counts(enumerated.count, enum_reference.count, "enumerate");
    EXPECT_TRUE(enumerated.triangles == enum_reference.triangles);
    EXPECT_EQ(enumerated.found_per_rank, enum_reference.found_per_rank);

    const auto amq_reference = test::reference_approx(g, config.run_spec(), config.amq);
    test::expect_identical_counts(approx.count, amq_reference.metrics, "approx");
    EXPECT_EQ(approx.estimated_triangles, amq_reference.estimated_triangles);
    EXPECT_EQ(approx.exact_type12, amq_reference.exact_type12);

    // And the count agrees with the sequential reference.
    EXPECT_EQ(count1.count.triangles, seq::count_edge_iterator(g).triangles);
    EXPECT_EQ(engine.build_passes(), 1u);
    EXPECT_EQ(engine.queries_run(), 5u);
}

TEST(EngineEquivalence, StreamPromotionMatchesFreshEngineStreaming) {
    const auto base = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 3);
    const auto churn = stream::make_churn_stream(base, 384, 0.4, 11);
    const auto batches = churn.batches_of(96);
    for (const bool maintain_lcc : {false, true}) {
        Config config;
        config.algorithm = Algorithm::kCetric;
        config.num_ranks = 4;
        config.maintain_lcc = maintain_lcc;

        // The engine runs other queries first — the stream promotion must
        // still match a fresh engine's streaming run bit for bit, and its
        // initial static pass a real build.
        Engine engine(base, config);
        (void)engine.count();
        const auto report = engine.stream(batches);

        const auto fresh = test::engine_stream(base, batches, config.stream_spec());
        test::expect_identical_counts(report.initial, fresh.initial, "stream initial");
        test::expect_identical_counts(
            report.initial,
            maintain_lcc ? test::reference_lcc(base, config.run_spec()).count
                         : test::reference_count(base, config.run_spec()),
            "stream initial vs real build");
        EXPECT_EQ(report.count.triangles, fresh.count.triangles);
        EXPECT_EQ(report.stream_seconds, fresh.stream_seconds);
        ASSERT_EQ(report.batches.size(), fresh.batches.size());
        for (std::size_t i = 0; i < report.batches.size(); ++i) {
            EXPECT_EQ(report.batches[i].triangles, fresh.batches[i].triangles);
            EXPECT_EQ(report.batches[i].delta, fresh.batches[i].delta);
            EXPECT_EQ(report.batches[i].seconds, fresh.batches[i].seconds);
            EXPECT_EQ(report.batches[i].lcc_seconds, fresh.batches[i].lcc_seconds);
            EXPECT_EQ(report.batches[i].words_sent, fresh.batches[i].words_sent);
        }
        EXPECT_EQ(report.delta, fresh.delta);
        EXPECT_EQ(report.lcc, fresh.lcc);
    }
}

TEST(Engine, StreamSessionIngestsIncrementallyAndMaterializes) {
    const auto base = test::complete_graph(16);
    const auto churn = stream::make_churn_stream(base, 128, 0.5, 5);
    const auto batches = churn.batches_of(32);
    Config config;
    config.num_ranks = 3;
    config.algorithm = Algorithm::kCetric;
    Engine engine(base, config);
    auto session = engine.open_stream();
    EXPECT_EQ(session.triangles(), session.initial().triangles);
    for (const auto& batch : batches) {
        const auto& stats = session.ingest(batch);
        // The materialized graph's sequential count must track the session.
        const auto current = session.materialize_global();
        EXPECT_EQ(seq::count_edge_iterator(current).triangles, stats.triangles);
    }
    EXPECT_EQ(session.batches().size(), batches.size());
    const auto report = session.report();
    EXPECT_EQ(report.query, Query::kStream);
    EXPECT_EQ(report.batches.size(), batches.size());
    EXPECT_EQ(report.count.triangles, session.triangles());
}

// --- typed sink-precondition error (satellite) --------------------------

TEST(Engine, SinkUnsupportedIsTypedErrorNotACrash) {
    const auto g = test::bowtie_graph();
    for (const auto algorithm : {Algorithm::kTricStyle, Algorithm::kHavoqgtStyle}) {
        Config config;
        config.algorithm = algorithm;
        config.num_ranks = 2;
        Engine engine(g, config);

        const auto lcc = engine.lcc();
        EXPECT_FALSE(lcc.ok());
        EXPECT_EQ(lcc.error, core::RunError::kSinkUnsupported);
        EXPECT_FALSE(lcc.error.message.empty());
        EXPECT_TRUE(lcc.delta.empty());

        const auto enumerated = engine.enumerate();
        EXPECT_EQ(enumerated.error, core::RunError::kSinkUnsupported);
        EXPECT_TRUE(enumerated.triangles.empty());

        // Plain counting (no sink) still works on the same engine.
        const auto count = engine.count();
        EXPECT_TRUE(count.ok());
        EXPECT_EQ(count.count.triangles, 2u);
    }
}

TEST(Engine, DispatchAlgorithmReturnsTypedErrorDirectly) {
    const auto g = test::triangle_graph();
    core::RunSpec spec;
    spec.algorithm = Algorithm::kTricStyle;
    spec.num_ranks = 2;
    auto views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network);
    const core::TriangleSink sink = [](core::Rank, core::VertexId, core::VertexId,
                                       core::VertexId) {};
    const auto result = core::dispatch_algorithm(sim, views, spec, &sink);
    EXPECT_EQ(result.error, core::RunError::kSinkUnsupported);
    EXPECT_EQ(result.triangles, 0u);
    EXPECT_EQ(sim.time(), 0.0) << "nothing may run on a rejected dispatch";
    // Without the sink the same dispatch succeeds.
    const auto ok = core::dispatch_algorithm(sim, views, spec, nullptr);
    EXPECT_EQ(ok.error, core::RunError::kNone);
    EXPECT_EQ(ok.triangles, 1u);
}

// --- smaller facade contracts -------------------------------------------

TEST(Engine, EnumerateWithSinkForwardsEveryFind) {
    const auto g = test::bowtie_graph();
    Config config;
    config.algorithm = Algorithm::kCetric;
    config.num_ranks = 2;
    Engine engine(g, config);
    std::size_t forwarded = 0;
    const core::TriangleSink sink = [&](core::Rank, core::VertexId, core::VertexId,
                                        core::VertexId) { ++forwarded; };
    const auto report = engine.enumerate(sink);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(forwarded, 2u);
    EXPECT_TRUE(report.triangles.empty()) << "sink mode collects nothing";
    EXPECT_EQ(report.count.triangles, 2u);
}

TEST(Engine, ReportCarriesOpsTelemetryAndJson) {
    const auto g = test::complete_graph(12);
    Config config;
    config.num_ranks = 2;
    Engine engine(g, config);
    const auto report = engine.count();
    EXPECT_GT(report.total_compute_ops, 0u);
    EXPECT_GE(report.total_compute_ops, report.max_compute_ops);
    EXPECT_GT(report.max_compute_ops, 0u);
    const auto json = report.to_json();
    EXPECT_NE(json.find("\"query\": \"count\""), std::string::npos);
    EXPECT_NE(json.find("\"triangles\": 220"), std::string::npos);
    EXPECT_NE(json.find("\"total_compute_ops\""), std::string::npos);
}

TEST(Engine, FamilySweepMatchesSequentialReference) {
    for (const auto& c : test::family_cases()) {
        Config config;
        config.algorithm = Algorithm::kCetric2;
        config.num_ranks = 5;
        Engine engine(c.graph, config);
        const auto report = engine.count();
        EXPECT_EQ(report.count.triangles, seq::count_edge_iterator(c.graph).triangles)
            << c.name;
    }
}

}  // namespace
}  // namespace katric
