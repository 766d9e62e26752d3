#include "core/runner.hpp"

#include "core/dist_edge_iterator.hpp"
#include "core/havoqgt_baseline.hpp"
#include "core/tric_baseline.hpp"
#include "util/assert.hpp"

namespace katric::core {

graph::Partition1D make_partition(const graph::CsrGraph& global, const RunSpec& spec) {
    switch (spec.partition) {
        case PartitionStrategy::kUniformVertices:
            return graph::Partition1D::uniform(global.num_vertices(), spec.num_ranks);
        case PartitionStrategy::kBalancedEdges:
            return graph::Partition1D::balanced_by_edges(global, spec.num_ranks);
    }
    KATRIC_THROW("unknown partition strategy");
}

CountResult dispatch_algorithm(net::Simulator& sim, const std::vector<DistGraph>& views,
                               const RunSpec& spec, const TriangleSink* sink,
                               const PreprocessCosts* replay, const HubIndices* hubs) {
    if (sink != nullptr && !algorithm_supports_sink(spec.algorithm)) {
        // Typed failure instead of an assertion: nothing runs, nothing is
        // charged to the machine, and the caller sees error != kNone.
        CountResult result;
        result.error = RunError::kSinkUnsupported;
        return result;
    }
    apply_preprocessing(sim, views, spec.algorithm, spec.options, replay, hubs);
    switch (spec.algorithm) {
        case Algorithm::kEdgeIteratorUnbuffered:
            return run_edge_iterator(sim, views, spec.options,
                                     EdgeIteratorMode{.buffered = false, .indirect = false},
                                     sink, hubs);
        case Algorithm::kDitric:
            return run_edge_iterator(sim, views, spec.options,
                                     EdgeIteratorMode{.buffered = true, .indirect = false},
                                     sink, hubs);
        case Algorithm::kDitric2:
            return run_edge_iterator(sim, views, spec.options,
                                     EdgeIteratorMode{.buffered = true, .indirect = true},
                                     sink, hubs);
        case Algorithm::kCetric:
            return run_edge_iterator(
                sim, views, spec.options,
                EdgeIteratorMode{.buffered = true, .indirect = false, .contracted = true},
                sink, hubs);
        case Algorithm::kCetric2:
            return run_edge_iterator(
                sim, views, spec.options,
                EdgeIteratorMode{.buffered = true, .indirect = true, .contracted = true},
                sink, hubs);
        case Algorithm::kTricStyle: return run_tric_style(sim, views, spec.options);
        case Algorithm::kHavoqgtStyle: return run_havoqgt_style(sim, views, spec.options);
    }
    KATRIC_THROW("unknown algorithm");
}

}  // namespace katric::core
