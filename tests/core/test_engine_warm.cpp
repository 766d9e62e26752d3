// The one preprocessing model (Config::charge_preprocessing): an Engine
// builds its views once, on first use, and every query either replays the
// recorded build or charges nothing. The load-bearing properties are
//   * charged queries are bit-identical to a real build on the query's own
//     machine (distribute, run_preprocessing, dispatch) — every algorithm ×
//     partition × kernel family × rank count,
//   * skipped queries carry the same counts / Δ / LCC / triangle lists with
//     no preprocessing charged,
//   * hub indices for a new hub threshold are built once and cached,
//   * typed errors survive either mode, and
//   * custom Partition1D injection runs the same pipeline over a
//     caller-chosen split.

#include <gtest/gtest.h>

#include <algorithm>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rmat.hpp"
#include "graph/load_balance.hpp"
#include "seq/edge_iterator.hpp"
#include "stream/edge_stream.hpp"
#include "support/engine_query.hpp"
#include "support/expect_count.hpp"
#include "support/reference.hpp"
#include "support/test_graphs.hpp"
#include "util/assert.hpp"

namespace katric {
namespace {

using core::Algorithm;
using core::CountResult;

/// Every algorithm × both partitions × both kernel families × p ∈ {1, 4, 7}
/// × charge on/off, each queried twice on one engine: charged reports match
/// the real build bit for bit; skipped reports match its counts and charge
/// no preprocessing. The engine builds exactly once.
void expect_counts_match_real_build(const graph::CsrGraph& g, const Config& config) {
    Engine engine(g, config);
    EXPECT_EQ(engine.preprocess_builds(), 0u) << "built on first use";
    const bool charge = config.charge_preprocessing;
    for (int pass = 0; pass < 2; ++pass) {
        for (const auto algorithm : core::all_algorithms()) {
            const auto report = engine.count(algorithm);
            auto spec = config.run_spec();
            spec.algorithm = algorithm;
            const auto reference = test::reference_count(g, spec);
            const auto what = core::algorithm_name(algorithm) + " pass "
                              + std::to_string(pass);
            EXPECT_EQ(report.reused_preprocessing, !charge) << what;
            if (charge) {
                test::expect_identical_counts(report.count, reference, what);
                continue;
            }
            EXPECT_EQ(report.count.triangles, reference.triangles) << what;
            EXPECT_EQ(report.count.local_phase_triangles, reference.local_phase_triangles)
                << what;
            EXPECT_EQ(report.count.global_phase_triangles,
                      reference.global_phase_triangles)
                << what;
            EXPECT_EQ(report.count.oom, reference.oom) << what;
            EXPECT_EQ(report.count.preprocessing_time, 0.0) << what;
        }
    }
    // One build on first use (hub bitmaps included), never one per query.
    EXPECT_EQ(engine.preprocess_builds(), 1u);
}

TEST(EngineWarm, CountsExactAcrossAlgorithmsPartitionsAndKernels) {
    // A local-heavy RGG and a skewed R-MAT whose hubs the adaptive kernels
    // index.
    const graph::CsrGraph graphs[] = {
        gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 7),
        gen::generate_rmat(8, 2048, 3)};
    for (const auto& g : graphs) {
        for (const auto partition : {core::PartitionStrategy::kBalancedEdges,
                                     core::PartitionStrategy::kUniformVertices}) {
            for (const auto kernel :
                 {seq::IntersectKind::kMerge, seq::IntersectKind::kAdaptive}) {
                for (const graph::Rank p : {1u, 4u, 7u}) {
                    for (const bool charge : {true, false}) {
                        SCOPED_TRACE("n=" + std::to_string(g.num_vertices()) + " "
                                     + partition_strategy_name(partition) + " "
                                     + seq::intersect_kind_name(kernel)
                                     + " p=" + std::to_string(p)
                                     + (charge ? " charged" : " skipped"));
                        Config config;
                        config.num_ranks = p;
                        config.partition = partition;
                        config.options.intersect = kernel;
                        config.charge_preprocessing = charge;
                        expect_counts_match_real_build(g, config);
                    }
                }
            }
        }
    }
}

TEST(EngineWarm, SkippedQueriesChargeNoPreprocessing) {
    const auto g = test::complete_graph(24);
    Config config;
    config.num_ranks = 3;
    Engine charged(g, config);  // charge_preprocessing defaults to on
    config.charge_preprocessing = false;
    Engine skipped_engine(g, config);

    const auto reference = test::reference_count(g, config.run_spec());
    const auto full = charged.count();
    test::expect_identical_counts(full.count, reference, "charged query");
    EXPECT_FALSE(full.reused_preprocessing)
        << "a replayed query is metric-identical to a real build";

    // A skipped query: same count, strictly less simulated time and traffic,
    // and no preprocessing phase at all.
    const auto skipped = skipped_engine.count();
    EXPECT_TRUE(skipped.reused_preprocessing);
    EXPECT_EQ(skipped.count.triangles, reference.triangles);
    EXPECT_EQ(skipped.count.preprocessing_time, 0.0);
    EXPECT_LT(skipped.count.total_time, reference.total_time);
    EXPECT_LT(skipped.count.total_messages_sent, reference.total_messages_sent);
}

/// lcc / enumerate for every sink-capable algorithm, plus approx_count, on
/// one engine: charged reports match the real build bit for bit, skipped
/// ones carry the same Δ / LCC / triangle lists / estimates with no
/// preprocessing charged.
void expect_payloads_match_real_build(const graph::CsrGraph& g, const Config& config) {
    Engine engine(g, config);
    const bool charge = config.charge_preprocessing;
    for (const auto algorithm : core::all_algorithms()) {
        if (!core::algorithm_supports_sink(algorithm)) { continue; }
        auto spec = config.run_spec();
        spec.algorithm = algorithm;
        const auto what = core::algorithm_name(algorithm);

        const auto lcc = engine.lcc(algorithm);
        const auto lcc_reference = test::reference_lcc(g, spec);
        EXPECT_EQ(lcc.count.triangles, lcc_reference.count.triangles) << what;
        EXPECT_EQ(lcc.delta, lcc_reference.delta) << what;
        EXPECT_EQ(lcc.lcc, lcc_reference.lcc) << what;

        QueryOptions query;
        query.algorithm = algorithm;
        const auto enumerated = engine.enumerate(query);
        const auto enum_reference = test::reference_enumerate(g, spec);
        EXPECT_TRUE(enumerated.triangles == enum_reference.triangles) << what;
        EXPECT_EQ(enumerated.found_per_rank, enum_reference.found_per_rank) << what;

        if (charge) {
            test::expect_identical_counts(lcc.count, lcc_reference.count, "lcc " + what);
            test::expect_identical_counts(enumerated.count, enum_reference.count,
                                          "enumerate " + what);
        } else {
            EXPECT_EQ(lcc.count.preprocessing_time, 0.0) << what;
            EXPECT_EQ(enumerated.count.preprocessing_time, 0.0) << what;
        }
    }

    const auto approx = engine.approx_count();
    const auto amq_reference = test::reference_approx(g, config.run_spec(), config.amq);
    EXPECT_EQ(approx.estimated_triangles, amq_reference.estimated_triangles);
    EXPECT_EQ(approx.exact_type12, amq_reference.exact_type12);
    if (charge) {
        test::expect_identical_counts(approx.count, amq_reference.metrics, "approx");
    } else {
        EXPECT_EQ(approx.count.preprocessing_time, 0.0);
    }
    EXPECT_EQ(engine.preprocess_builds(), 1u);
}

TEST(EngineWarm, LccAndEnumerateAndApproxMatchRealBuildPayloads) {
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 13);
    for (const auto partition : {core::PartitionStrategy::kBalancedEdges,
                                 core::PartitionStrategy::kUniformVertices}) {
        for (const auto kernel :
             {seq::IntersectKind::kMerge, seq::IntersectKind::kAdaptive}) {
            for (const graph::Rank p : {1u, 4u, 7u}) {
                for (const bool charge : {true, false}) {
                    SCOPED_TRACE(partition_strategy_name(partition) + " "
                                 + seq::intersect_kind_name(kernel)
                                 + " p=" + std::to_string(p)
                                 + (charge ? " charged" : " skipped"));
                    Config config;
                    config.num_ranks = p;
                    config.partition = partition;
                    config.options.intersect = kernel;
                    config.charge_preprocessing = charge;
                    expect_payloads_match_real_build(g, config);
                }
            }
        }
    }
}

/// Interleaving stream batches with static queries: the engine's static
/// state must not be perturbed by the dynamic session, and the stream itself
/// must match a fresh engine's streaming run exactly.
TEST(EngineWarm, StreamInterleavedWithStaticQueriesStaysExact) {
    const auto base = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 3);
    const auto churn = stream::make_churn_stream(base, 384, 0.4, 11);
    const auto batches = churn.batches_of(96);
    for (const bool maintain_lcc : {false, true}) {
        Config config;
        config.algorithm = Algorithm::kCetric;
        config.num_ranks = 4;
        config.maintain_lcc = maintain_lcc;
        config.options.intersect = seq::IntersectKind::kAdaptive;
        config.charge_preprocessing = false;

        Engine engine(base, config);
        const auto before = engine.count();

        const auto report = engine.stream(batches);
        auto fresh_spec = config.stream_spec();
        const auto fresh = test::engine_stream(base, batches, fresh_spec);
        EXPECT_TRUE(report.reused_preprocessing)
            << "a skipped stream's initial pass charged no preprocessing";
        EXPECT_EQ(report.initial.triangles, fresh.initial.triangles);
        EXPECT_EQ(report.count.triangles, fresh.count.triangles);
        ASSERT_EQ(report.batches.size(), fresh.batches.size());
        for (std::size_t i = 0; i < report.batches.size(); ++i) {
            EXPECT_EQ(report.batches[i].triangles, fresh.batches[i].triangles);
            EXPECT_EQ(report.batches[i].delta, fresh.batches[i].delta);
        }
        EXPECT_EQ(report.delta, fresh.delta);
        EXPECT_EQ(report.lcc, fresh.lcc);

        // A static query after the stream still answers for the base graph.
        const auto after = engine.count();
        EXPECT_EQ(after.count.triangles, before.count.triangles);
        EXPECT_EQ(after.count.local_phase_triangles, before.count.local_phase_triangles);
    }
}

// --- per-query AlgorithmOptions overrides (tentpole) --------------------

TEST(Engine, PerQueryOptionsOverrideMatchesRealBuildWithThoseOptions) {
    const auto g = gen::generate_rmat(8, 2048, 5);
    Config config;
    config.num_ranks = 4;
    Engine engine(g, config);  // charged: every query must stay bit-identical

    QueryOptions query;
    query.algorithm = Algorithm::kCetric2;
    query.options = config.options;
    query.options->intersect = seq::IntersectKind::kAdaptive;
    query.options->compress_neighborhoods = true;

    auto spec = config.run_spec();
    spec.algorithm = Algorithm::kCetric2;
    spec.options = *query.options;
    test::expect_identical_counts(engine.count(query).count,
                                  test::reference_count(g, spec), "per-query options");

    // The engine's defaults are untouched by the override.
    test::expect_identical_counts(engine.count().count,
                                  test::reference_count(g, config.run_spec()),
                                  "defaults after override");
}

TEST(EngineWarm, PerQueryHubThresholdOverrideBuildsHubIndexOnce) {
    const auto g = gen::generate_rmat(8, 2048, 7);
    Config config;
    config.num_ranks = 4;
    config.options.intersect = seq::IntersectKind::kAdaptive;
    Engine engine(g, config);
    EXPECT_EQ(engine.preprocess_builds(), 0u);

    QueryOptions tuned;
    tuned.options = config.options;
    tuned.options->hub_threshold = 6;

    auto spec = config.run_spec();
    spec.options = *tuned.options;
    const auto expected = test::reference_count(g, spec);
    // The replay charges the tuned threshold's hub build like a real build.
    test::expect_identical_counts(engine.count(tuned).count, expected, "tuned hubs");
    EXPECT_EQ(engine.preprocess_builds(), 2u)
        << "the first build plus the tuned threshold's hub indices";
    test::expect_identical_counts(engine.count(tuned).count, expected, "tuned again");
    EXPECT_EQ(engine.preprocess_builds(), 2u) << "a cached threshold is never rebuilt";

    // Back to the session default: its hub indices are still cached.
    test::expect_identical_counts(engine.count().count,
                                  test::reference_count(g, config.run_spec()),
                                  "default hubs");
    EXPECT_EQ(engine.preprocess_builds(), 2u);
}

// --- typed errors on the warm path (satellite) --------------------------

TEST(EngineWarm, SinkUnsupportedSurvivesSkippedPreprocessing) {
    const auto g = test::bowtie_graph();
    for (const auto algorithm : {Algorithm::kTricStyle, Algorithm::kHavoqgtStyle}) {
        Config config;
        config.algorithm = algorithm;
        config.num_ranks = 2;
        config.charge_preprocessing = false;
        Engine warm(g, config);

        const auto lcc = warm.lcc();
        EXPECT_FALSE(lcc.ok());
        EXPECT_EQ(lcc.error, core::RunError::kSinkUnsupported);
        EXPECT_FALSE(lcc.error.message.empty());
        EXPECT_TRUE(lcc.delta.empty());
        EXPECT_NE(lcc.to_json().find("\"error\""), std::string::npos)
            << "JSON emission must carry the typed error for skipped queries";
        EXPECT_NE(lcc.to_json().find("\"reused_preprocessing\": 1"), std::string::npos);

        const auto enumerated = warm.enumerate();
        EXPECT_EQ(enumerated.error, core::RunError::kSinkUnsupported);
        EXPECT_TRUE(enumerated.triangles.empty());

        // Plain counting still works on the same engine afterwards.
        const auto count = warm.count();
        EXPECT_TRUE(count.ok());
        EXPECT_EQ(count.count.triangles, 2u);
    }
}

// --- Partition1D injection (tentpole) -----------------------------------

TEST(Engine, InjectedPartitionMatchesStrategyTwin) {
    const auto g = gen::generate_rgg2d(256, gen::rgg2d_radius_for_degree(256, 8.0), 17);
    Config config;
    config.num_ranks = 4;
    config.partition = core::PartitionStrategy::kUniformVertices;
    Engine strategy_engine(g, config);
    Engine injected(g, config,
                    graph::Partition1D::uniform(g.num_vertices(), config.num_ranks));
    for (const auto algorithm : {Algorithm::kCetric, Algorithm::kDitric}) {
        test::expect_identical_counts(
            injected.count(algorithm).count, strategy_engine.count(algorithm).count,
            "injected uniform " + core::algorithm_name(algorithm));
    }
}

TEST(Engine, InjectedCostFunctionPartitionCountsExactly) {
    const auto g = gen::generate_rmat(8, 2048, 9);
    const auto expected = seq::count_edge_iterator(g).triangles;
    Config config;
    config.num_ranks = 5;
    for (const auto fn :
         {graph::CostFunction::kDegreeSq, graph::CostFunction::kOrientedWedges}) {
        Engine engine(g, config, graph::partition_by_cost(g, config.num_ranks, fn));
        EXPECT_EQ(engine.count().count.triangles, expected)
            << graph::cost_function_name(fn);
        // Skipping the preprocessing charge composes with injection.
        Config skip_config = config;
        skip_config.charge_preprocessing = false;
        Engine skipped(g, skip_config, graph::partition_by_cost(g, config.num_ranks, fn));
        EXPECT_EQ(skipped.count().count.triangles, expected)
            << "skipped " << graph::cost_function_name(fn);
    }
}

TEST(Engine, InjectedPartitionMustAgreeWithConfig) {
    const auto g = test::complete_graph(12);
    Config config;
    config.num_ranks = 4;
    EXPECT_THROW((Engine{g, config, graph::Partition1D::uniform(g.num_vertices(), 3)}),
                 assertion_error);
    EXPECT_THROW((Engine{g, config, graph::Partition1D::uniform(7, 4)}),
                 assertion_error);
}

TEST(EngineWarm, WarmMonitorPresetSkipsPreprocessingCharge) {
    const auto g = test::complete_graph(16);
    auto config = Config::preset("warm-monitor");
    config.num_ranks = 3;
    EXPECT_FALSE(config.charge_preprocessing);
    Engine engine(g, config);
    const auto report = engine.count();
    EXPECT_TRUE(report.reused_preprocessing);
    EXPECT_EQ(report.count.preprocessing_time, 0.0);
    EXPECT_EQ(report.count.triangles, seq::count_edge_iterator(g).triangles);
}

}  // namespace
}  // namespace katric
