#pragma once

#include "core/algorithm.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"
#include "net/network_config.hpp"

namespace katric::core {

enum class PartitionStrategy {
    kUniformVertices,  ///< ⌈n/p⌉ vertices per PE
    kBalancedEdges,    ///< contiguous ranges with ≈ m/p incident half-edges
};

/// One experiment configuration: which algorithm, how many simulated PEs,
/// what machine, what knobs.
struct RunSpec {
    Algorithm algorithm = Algorithm::kDitric;
    Rank num_ranks = 4;
    net::NetworkConfig network = net::NetworkConfig::supermuc_like();
    AlgorithmOptions options = {};
    PartitionStrategy partition = PartitionStrategy::kBalancedEdges;
};

[[nodiscard]] graph::Partition1D make_partition(const graph::CsrGraph& global,
                                                const RunSpec& spec);

/// Dispatches on spec.algorithm over preprocessed per-rank views (see
/// core::run_preprocessing; TriC-style alone runs on raw views). The sink is
/// supported by the paper's algorithms (edge-iterator family and CETRIC);
/// passing one with a baseline algorithm returns a CountResult whose
/// error == RunError::kSinkUnsupported without running or charging
/// anything. `replay` is the recorded preprocessing ledger to charge onto
/// `sim` first (null = charge nothing); `hubs` are the views' hub indices,
/// required when the run intersects through hub bitmaps. Never mutates the
/// views, so any number of queries may run it concurrently over one view
/// set, each on its own Simulator.
CountResult dispatch_algorithm(net::Simulator& sim, const std::vector<DistGraph>& views,
                               const RunSpec& spec, const TriangleSink* sink = nullptr,
                               const PreprocessCosts* replay = nullptr,
                               const HubIndices* hubs = nullptr);

}  // namespace katric::core
