#pragma once

#include <cstdint>
#include <vector>

#include "graph/csr_graph.hpp"

namespace katric::seq {

/// Result of a sequential triangle count; ops is the total intersection
/// work (comparisons), the input to the simulator's compute model.
struct SeqCountResult {
    std::uint64_t triangles = 0;
    std::uint64_t ops = 0;
};

/// O(n³) reference over all vertex triples. Only for tests on tiny graphs.
[[nodiscard]] std::uint64_t count_brute_force(const graph::CsrGraph& undirected);

/// EDGEITERATOR / COMPACT-FORWARD (Algorithm 1): orient by degree, then for
/// every directed edge (v,u) add |N⁺(v) ∩ N⁺(u)|. Each triangle is counted
/// exactly once, at the edge between its two ≺-smallest vertices. The
/// sequential oracles always intersect with intersect_merge.
[[nodiscard]] SeqCountResult count_edge_iterator(const graph::CsrGraph& undirected);

/// Same loop on a pre-oriented graph (any orientation from a total order).
[[nodiscard]] SeqCountResult count_oriented(const graph::CsrGraph& oriented);

/// Naive wedge-checking counter (Section II-A): enumerate all wedges
/// (v,u),(v,w) with u < w and test for the closing edge. Exercised as the
/// HavoqGT-style baseline's local kernel.
[[nodiscard]] SeqCountResult count_wedge_check(const graph::CsrGraph& undirected);

/// Δ(v) for every vertex: number of triangles incident to v. Basis of the
/// local clustering coefficient.
[[nodiscard]] std::vector<std::uint64_t> per_vertex_triangles(
    const graph::CsrGraph& undirected);

}  // namespace katric::seq
