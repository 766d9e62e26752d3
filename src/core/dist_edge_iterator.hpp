#pragma once

#include <vector>

#include "core/algorithm.hpp"

namespace katric::core {

/// Communication mode of the distributed edge iterator family.
struct EdgeIteratorMode {
    bool buffered = true;     ///< false = Alg. 2 with one send per cut edge (Fig. 2)
    bool indirect = false;    ///< grid-routed delivery (the "2" variants)
    bool contracted = false;  ///< CETRIC: expanded local phase + contraction (Alg. 3)
};

/// The distributed EDGEITERATOR family (Alg. 2 / Section IV-A/B) and its
/// contraction-based two-phase variant CETRIC (Section IV-C, Alg. 3):
///   * local phase — intersections for edges (v,u) with both endpoints
///     local; when contracted, on the expanded graph V_i ∪ ∂V_i instead,
///     which finds every type-1 and type-2 triangle without communication;
///   * contraction (contracted only) — A(v) shrinks to the cut-graph
///     adjacency Ac(v) = A(v)\V_i (Lemma 1: triangles of ∂G are exactly the
///     type-3 triangles of G);
///   * global phase — for every cut edge (v,u), send (v, row(v)) to rank(u)
///     once per destination PE (Arifuzzaman's surrogate rule over ID-sorted
///     neighborhoods), where row is A(v), or Ac(v) when contracted — so the
///     contracted volume depends solely on the cut structure. Aggregated
///     through the dynamic message queue when buffered, and optionally
///     routed indirectly;
///   * reduce — binomial-tree sum of the per-PE counts.
///
/// mode = {buffered=false}                   → the "no buffering" series of Fig. 2
/// mode = {buffered=true}                    → DITRIC
/// mode = {buffered, indirect}               → DITRIC2
/// mode = {buffered, contracted}             → CETRIC
/// mode = {buffered, indirect, contracted}   → CETRIC2
///
/// Runs on preprocessed views (ghost-degree exchange, orientation and the
/// expanded/contracted adjacency done; dispatch_algorithm charges or replays
/// that front half). `hubs` are the views' hub indices for the bitmap
/// kernels (null = none).
CountResult run_edge_iterator(net::Simulator& sim, const std::vector<DistGraph>& views,
                              const AlgorithmOptions& options, EdgeIteratorMode mode,
                              const TriangleSink* sink = nullptr,
                              const HubIndices* hubs = nullptr);

/// The local phase of run_edge_iterator, plus the contraction step when
/// `contracted`; returns every rank's local-phase triangle count. Honours
/// the hybrid `options.threads` model when no sink is attached.
std::vector<std::uint64_t> count_local_phase(net::Simulator& sim,
                                             const std::vector<DistGraph>& views,
                                             const AlgorithmOptions& options,
                                             bool contracted,
                                             const TriangleSink* sink = nullptr,
                                             const HubIndices* hubs = nullptr);

/// The global phase's surrogate walk over a local vertex's ID-sorted `row`:
/// charges one op per entry and calls send(owner) once per distinct remote
/// owner rank, in rank order.
template <typename Send>
void for_each_surrogate(net::RankHandle& self, const DistGraph& view,
                        std::span<const VertexId> row, Send&& send) {
    Rank last = self.rank();  // never a send target for its own vertices
    for (const VertexId u : row) {
        self.charge_ops(1);
        if (view.is_local(u)) { continue; }
        const Rank owner = view.partition().rank_of(u);
        if (owner == last) { continue; }  // surrogate: already sent there
        last = owner;
        send(owner);
    }
}

}  // namespace katric::core
