#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"

namespace katric::seq {

/// Shared-memory (OpenMP) triangle count on an oriented graph using the
/// edge-centric strategy of Section IV-D: intersections for each directed
/// edge (v,u) are independent, so a dynamic schedule over vertices with
/// per-thread accumulators gives the work-stealing-like balance Green et al.
/// report, without a preprocessing partition step.
struct ParallelCountResult {
    std::uint64_t triangles = 0;
    std::uint64_t ops = 0;           ///< summed over threads
    std::uint64_t max_thread_ops = 0;  ///< critical-path work (load balance)
    int threads = 1;
    double wall_seconds = 0.0;
};

[[nodiscard]] ParallelCountResult count_oriented_parallel(
    const graph::CsrGraph& oriented, int num_threads);

}  // namespace katric::seq
