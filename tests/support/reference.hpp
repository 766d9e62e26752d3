#pragma once

#include <algorithm>
#include <vector>

#include "core/approx.hpp"
#include "core/dist_lcc.hpp"
#include "core/runner.hpp"
#include "report.hpp"

namespace katric::test {

// The real-build reference every Engine equivalence suite compares against:
// distribute the graph, run the preprocessing build on the query's own
// simulator, then the const dispatch. An Engine replays one recorded build
// instead, so a charged Engine report must equal these bit for bit.

/// The preprocessing build a run of `algorithm` performs on `sim` (none for
/// TriC-style, merge kernels for the HavoqGT-style baseline); returns the
/// hub indices the run intersects through.
inline core::HubIndices build_preprocessing(net::Simulator& sim,
                                            std::vector<graph::DistGraph>& views,
                                            core::Algorithm algorithm,
                                            const core::AlgorithmOptions& options) {
    const auto prep = core::preprocess_options(algorithm, options);
    if (!prep.has_value()) { return {}; }
    return core::run_preprocessing(sim, views, *prep);
}

/// build_preprocessing + dispatch_algorithm on raw views. A sink the
/// algorithm cannot drive is rejected before anything is built or charged.
inline core::CountResult build_and_dispatch(net::Simulator& sim,
                                            std::vector<graph::DistGraph>& views,
                                            const core::RunSpec& spec,
                                            const core::TriangleSink* sink = nullptr) {
    if (sink != nullptr && !core::algorithm_supports_sink(spec.algorithm)) {
        return core::dispatch_algorithm(sim, views, spec, sink);
    }
    const auto hubs = build_preprocessing(sim, views, spec.algorithm, spec.options);
    return core::dispatch_algorithm(sim, views, spec, sink, nullptr, &hubs);
}

inline core::CountResult reference_count(const graph::CsrGraph& g,
                                         const core::RunSpec& spec,
                                         const core::TriangleSink* sink = nullptr) {
    auto views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network);
    return build_and_dispatch(sim, views, spec, sink);
}

inline core::LccResult reference_lcc(const graph::CsrGraph& g,
                                     const core::RunSpec& spec) {
    auto views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network);
    core::HubIndices hubs;
    if (core::algorithm_supports_sink(spec.algorithm)) {
        hubs = build_preprocessing(sim, views, spec.algorithm, spec.options);
    }
    return core::compute_distributed_lcc(sim, views, g, spec, nullptr, &hubs);
}

/// Canonical sorted triangle list plus per-rank find counts, collected the
/// way Engine::enumerate collects them into a kEnumerate Report.
inline Report reference_enumerate(const graph::CsrGraph& g, const core::RunSpec& spec) {
    Report result;
    result.query = Query::kEnumerate;
    result.algorithm = spec.algorithm;
    result.found_per_rank.assign(spec.num_ranks, 0);
    const core::TriangleSink sink = [&](core::Rank finder, core::VertexId v,
                                        core::VertexId u, core::VertexId w) {
        std::vector<core::VertexId> sorted = {v, u, w};
        std::sort(sorted.begin(), sorted.end());
        result.triangles.push_back(core::Triangle{sorted[0], sorted[1], sorted[2]});
        ++result.found_per_rank[finder];
    };
    result.count = reference_count(g, spec, &sink);
    std::sort(result.triangles.begin(), result.triangles.end());
    return result;
}

inline core::AmqResult reference_approx(const graph::CsrGraph& g,
                                        const core::RunSpec& spec,
                                        const core::AmqOptions& amq) {
    auto views = graph::distribute(g, core::make_partition(g, spec));
    net::Simulator sim(spec.num_ranks, spec.network);
    const auto hubs =
        build_preprocessing(sim, views, core::Algorithm::kCetric, spec.options);
    return core::count_triangles_cetric_amq(sim, views, spec, amq, nullptr, &hubs);
}

}  // namespace katric::test
