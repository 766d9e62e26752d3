// obs::Tracer and obs::check_trace_json — the span recorder must emit
// Chrome trace-event JSON the schema checker accepts (balanced B/E stacks,
// monotone timestamps), and the checker must reject every malformation a
// drifting emitter could produce. When KATRIC_TRACE_FILE is set, the last
// test validates that external artifact — the CI smoke leg points it at a
// trace produced by a real bench run.

#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "engine.hpp"
#include "gen/rgg2d.hpp"
#include "net/simulator.hpp"
#include "obs/trace_check.hpp"

namespace katric {
namespace {

net::NetworkConfig test_network() { return net::NetworkConfig{}; }

/// A two-rank simulator that ran a preprocessing-shaped superstep sequence
/// with real traffic — the substrate every tracer test records from.
void run_phases(net::Simulator& sim) {
    const auto chatter = [](net::RankHandle& rank) {
        rank.charge_ops(100 * (rank.rank() + 1));
        rank.send((rank.rank() + 1) % rank.size(), {1, 2, 3});
    };
    const auto swallow = [](net::RankHandle&, net::Rank, int,
                            std::span<const std::uint64_t>) {};
    sim.run_phase("preprocessing:assemble", chatter, swallow);
    sim.run_phase("preprocessing:exchange", chatter, swallow);
    sim.run_phase("local", chatter, swallow);
    sim.run_phase("global", chatter, swallow);
}

TEST(Tracer, HostSpansProduceValidBalancedTrace) {
    obs::Tracer tracer;
    tracer.record_span("ingest#0", "stream", 0.5);
    tracer.record_span("ingest#1", "stream", 0.25);
    ASSERT_EQ(tracer.spans().size(), 2u);
    // Appended end-to-end on the running cursor.
    EXPECT_GE(tracer.spans()[1].begin_us, tracer.spans()[0].end_us);

    const auto check = obs::check_trace_json(tracer.to_json());
    EXPECT_TRUE(check.ok) << check.error;
    EXPECT_EQ(check.num_spans, 2u);
    EXPECT_EQ(check.num_events, 4u);  // metadata events are not counted
}

TEST(Tracer, RecordQueryEmitsHierarchyAndRankLanes) {
    net::Simulator sim(2, test_network());
    sim.record_phase_details(true);
    run_phases(sim);

    obs::Tracer tracer;
    tracer.record_query("count#0", sim);
    EXPECT_EQ(tracer.num_queries(), 1u);

    std::size_t queries = 0;
    std::size_t phases = 0;
    std::size_t supersteps = 0;
    std::size_t rank_spans = 0;
    for (const auto& span : tracer.spans()) {
        if (span.cat == "query") { ++queries; }
        if (span.cat == "phase") { ++phases; }
        if (span.cat == "superstep") { ++supersteps; }
        if (span.cat == "rank") { ++rank_spans; }
        EXPECT_GE(span.end_us, span.begin_us);
    }
    EXPECT_EQ(queries, 1u);
    // "preprocessing" groups two supersteps; "local"/"global" groups would
    // merely duplicate their single superstep and are elided.
    EXPECT_EQ(phases, 1u);
    EXPECT_EQ(supersteps, 4u);
    // Two ranks with busy time in each of the four supersteps.
    EXPECT_EQ(rank_spans, 8u);

    const auto check = obs::check_trace_json(tracer.to_json());
    EXPECT_TRUE(check.ok) << check.error;
    EXPECT_EQ(check.num_spans, tracer.spans().size());
}

TEST(Tracer, RankLanesNeedPhaseDetails) {
    net::Simulator sim(2, test_network());
    run_phases(sim);  // details off: control lanes only
    obs::Tracer tracer;
    tracer.record_query("count#0", sim);
    for (const auto& span : tracer.spans()) { EXPECT_NE(span.cat, "rank"); }
    EXPECT_TRUE(obs::check_trace_json(tracer.to_json()).ok);
}

TEST(Tracer, QueriesAppendLeftToRight) {
    net::Simulator first(2, test_network());
    run_phases(first);
    net::Simulator second(2, test_network());
    run_phases(second);

    obs::Tracer tracer;
    tracer.record_query("count#0", first);
    const double cursor_after_first = tracer.spans().front().end_us;
    tracer.record_query("count#1", second);
    EXPECT_EQ(tracer.num_queries(), 2u);

    // The second query's span starts where the first ended even though both
    // simulators started at t = 0.
    double second_begin = -1.0;
    for (const auto& span : tracer.spans()) {
        if (span.cat == "query" && span.name == "count#1") {
            second_begin = span.begin_us;
        }
    }
    EXPECT_GE(second_begin, cursor_after_first);
    EXPECT_TRUE(obs::check_trace_json(tracer.to_json()).ok);
}

TEST(Tracer, EmptySimulatorRecordsNothing) {
    net::Simulator sim(2, test_network());
    obs::Tracer tracer;
    tracer.record_query("count#0", sim);
    EXPECT_TRUE(tracer.spans().empty());
    EXPECT_TRUE(obs::check_trace_json(tracer.to_json()).ok);
}

// --- the checker itself ---------------------------------------------------

TEST(TraceCheck, AcceptsMinimalHandwrittenTrace) {
    const std::string doc = R"({"traceEvents": [
        {"ph": "M", "name": "process_name", "pid": 1,
         "args": {"name": "katric"}},
        {"ph": "B", "name": "a", "cat": "query", "pid": 1, "tid": 0, "ts": 0},
        {"ph": "B", "name": "b", "cat": "phase", "pid": 1, "tid": 0, "ts": 1.5},
        {"ph": "E", "pid": 1, "tid": 0, "ts": 2},
        {"ph": "E", "pid": 1, "tid": 0, "ts": 4}
    ]})";
    const auto check = obs::check_trace_json(doc);
    EXPECT_TRUE(check.ok) << check.error;
    EXPECT_EQ(check.num_spans, 2u);
    EXPECT_EQ(check.num_events, 4u);
}

TEST(TraceCheck, RejectsMalformedJson) {
    EXPECT_FALSE(obs::check_trace_json(""));
    EXPECT_FALSE(obs::check_trace_json("{"));
    EXPECT_FALSE(obs::check_trace_json(R"({"traceEvents": [}])"));
    EXPECT_FALSE(obs::check_trace_json(R"({"traceEvents": []} trailing)"));
    EXPECT_FALSE(obs::check_trace_json(R"({"traceEvents": [{"ph": "B",}]})"));
    EXPECT_FALSE(obs::check_trace_json(R"([1, 2, 3])"));  // array top level
    EXPECT_FALSE(obs::check_trace_json(R"({"events": []})"));  // wrong key
}

TEST(TraceCheck, RejectsUnbalancedStacks) {
    // E with no open B.
    EXPECT_FALSE(obs::check_trace_json(
        R"({"traceEvents": [{"ph": "E", "pid": 1, "tid": 0, "ts": 0}]})"));
    // B left open at the end.
    EXPECT_FALSE(obs::check_trace_json(
        R"({"traceEvents": [{"ph": "B", "name": "a", "pid": 1, "tid": 0, "ts": 0}]})"));
    // Balanced per document but crossed between lanes: each tid's stack is
    // checked independently, so tid 1's E has no matching B.
    EXPECT_FALSE(obs::check_trace_json(R"({"traceEvents": [
        {"ph": "B", "name": "a", "pid": 1, "tid": 0, "ts": 0},
        {"ph": "E", "pid": 1, "tid": 1, "ts": 1}
    ]})"));
}

TEST(TraceCheck, RejectsNonMonotoneTimestamps) {
    EXPECT_FALSE(obs::check_trace_json(R"({"traceEvents": [
        {"ph": "B", "name": "a", "pid": 1, "tid": 0, "ts": 5},
        {"ph": "E", "pid": 1, "tid": 0, "ts": 4}
    ]})"));
}

TEST(TraceCheck, RejectsEventsMissingRequiredFields) {
    // B without a name.
    EXPECT_FALSE(obs::check_trace_json(
        R"({"traceEvents": [{"ph": "B", "pid": 1, "tid": 0, "ts": 0}]})"));
    // B with a string ts.
    EXPECT_FALSE(obs::check_trace_json(R"({"traceEvents": [
        {"ph": "B", "name": "a", "pid": 1, "tid": 0, "ts": "0"},
        {"ph": "E", "pid": 1, "tid": 0, "ts": 1}
    ]})"));
    // Event without ph.
    EXPECT_FALSE(
        obs::check_trace_json(R"({"traceEvents": [{"name": "a", "ts": 0}]})"));
}

TEST(TraceCheck, MissingFileFails) {
    const auto check = obs::check_trace_file("/nonexistent/katric-trace.json");
    EXPECT_FALSE(check.ok);
    EXPECT_FALSE(check.error.empty());
}

// --- end to end through the Engine ---------------------------------------

TEST(EngineTrace, WritesValidatedFileOnRelease) {
    const std::string path = "engine_trace_test.json";
    std::remove(path.c_str());
    {
        const auto g =
            gen::generate_rgg2d(192, gen::rgg2d_radius_for_degree(192, 8.0), 7);
        Config config;
        config.num_ranks = 4;
        config.trace_out = path;
        Engine engine(g, config);
        ASSERT_TRUE(engine.observability() != nullptr);
        EXPECT_TRUE(engine.observability()->tracing_enabled());
        (void)engine.count();
        (void)engine.lcc();
        // File is written when the engine (the last owner) goes away.
    }
    const auto check = obs::check_trace_file(path);
    EXPECT_TRUE(check.ok) << check.error;
    EXPECT_GT(check.num_spans, 0u);
    std::remove(path.c_str());
}

TEST(EngineTrace, EnginesSharingAPathShareOneTimeline) {
    const std::string path = "engine_trace_shared_test.json";
    std::remove(path.c_str());
    {
        const auto g =
            gen::generate_rgg2d(128, gen::rgg2d_radius_for_degree(128, 8.0), 9);
        Config config;
        config.num_ranks = 2;
        config.trace_out = path;
        Engine first(g, config);
        Engine second(g, config);
        // Path-shared: one Tracer behind both engines, so the second
        // engine's queries append instead of overwriting.
        EXPECT_EQ(first.observability(), second.observability());
        (void)first.count();
        (void)second.count();
        // Each engine's first-use preprocessing build plus its query.
        EXPECT_EQ(first.observability()->tracer().num_queries(), 4u);
    }
    const auto check = obs::check_trace_file(path);
    EXPECT_TRUE(check.ok) << check.error;
    std::remove(path.c_str());
}

/// CI hook: when KATRIC_TRACE_FILE names a trace artifact (the smoke job
/// points it at a traced `bench_host --section amortization` run), validate it against
/// the full schema. Skipped in a plain local run.
TEST(EngineTrace, ValidatesExternalArtifactFromEnv) {
    const char* path = std::getenv("KATRIC_TRACE_FILE");
    if (path == nullptr || *path == '\0') {
        GTEST_SKIP() << "KATRIC_TRACE_FILE not set";
    }
    const auto check = obs::check_trace_file(path);
    EXPECT_TRUE(check.ok) << path << ": " << check.error;
    EXPECT_GT(check.num_spans, 0u);
}

}  // namespace
}  // namespace katric
