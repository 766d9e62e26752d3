#pragma once

#include <vector>

#include "engine.hpp"

namespace katric::test {

/// One-query helpers for tests that only need "run query X on graph G under
/// spec S": each routes through a temporary katric::Engine and returns the
/// core result type, or the Report itself where no core type exists
/// (enumerate, stream). The equivalence suites compare Engine reports
/// against the real-build reference in support/reference.hpp instead.
inline core::CountResult engine_count(const graph::CsrGraph& g,
                                      const core::RunSpec& spec,
                                      const core::TriangleSink* sink = nullptr) {
    Engine engine(g, Config::from_run_spec(spec));
    return engine.count(sink).count;
}

inline core::LccResult engine_lcc(const graph::CsrGraph& g, const core::RunSpec& spec) {
    Engine engine(g, Config::from_run_spec(spec));
    auto report = engine.lcc();
    core::LccResult result;
    result.count = std::move(report.count);
    result.delta = std::move(report.delta);
    result.lcc = std::move(report.lcc);
    result.postprocess_time = report.postprocess_time;
    return result;
}

inline Report engine_enumerate(const graph::CsrGraph& g, const core::RunSpec& spec) {
    Engine engine(g, Config::from_run_spec(spec));
    return engine.enumerate();
}

inline core::AmqResult engine_approx(const graph::CsrGraph& g,
                                     const core::RunSpec& spec,
                                     const core::AmqOptions& amq) {
    Engine engine(g, Config::from_run_spec(spec));
    auto report = engine.approx_count(amq);
    core::AmqResult result;
    result.estimated_triangles = report.estimated_triangles;
    result.exact_type12 = report.exact_type12;
    result.estimated_type3 = report.estimated_type3;
    result.metrics = std::move(report.count);
    return result;
}

inline Report engine_stream(const graph::CsrGraph& initial,
                                          const std::vector<stream::EdgeBatch>& batches,
                                          const stream::StreamRunSpec& spec,
                                          const stream::BatchObserver& observer = {}) {
    Engine engine(initial, Config::from_stream_spec(spec));
    auto session = engine.open_stream();
    for (const auto& batch : batches) {
        const auto& stats = session.ingest(batch);
        if (observer) { observer(stats); }
    }
    return session.report();
}

}  // namespace katric::test
