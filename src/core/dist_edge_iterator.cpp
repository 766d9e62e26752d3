#include "core/dist_edge_iterator.hpp"

#include <vector>

#include "core/hybrid.hpp"
#include "net/collectives.hpp"
#include "net/encoding.hpp"
#include "net/termination.hpp"
#include "util/assert.hpp"

namespace katric::core {

namespace {

/// Count-or-collect intersection: with a sink, enumerate closing vertices
/// (via the shared per-thread scratch — no per-call vector churn).
std::uint64_t intersect_for(net::RankHandle& self, std::span<const VertexId> a,
                            std::span<const VertexId> b,
                            const seq::AdaptiveIntersect& isect,
                            const TriangleSink* sink, VertexId v, VertexId u,
                            int parallel_threads) {
    if (sink == nullptr) {
        const auto r = isect.count(a, b, v, u);
        charge_parallel_ops(self, r.ops, parallel_threads);
        return r.count;
    }
    auto& scratch = seq::collect_scratch();
    scratch.clear();
    const auto r = isect.collect(a, b, scratch, v, u);
    charge_parallel_ops(self, r.ops, parallel_threads);
    for (const VertexId w : scratch) { (*sink)(self.rank(), v, u, w); }
    return r.count;
}

}  // namespace

std::vector<std::uint64_t> count_local_phase(net::Simulator& sim,
                                             const std::vector<DistGraph>& views,
                                             const AlgorithmOptions& options,
                                             bool contracted, const TriangleSink* sink,
                                             const HubIndices* hubs) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(views.size() == p);
    std::vector<std::uint64_t> counts(p, 0);

    // Edges with both endpoints local — or, contracted, every edge of the
    // expanded graph V_i ∪ ∂V_i (Alg. 3 lines 5–7).
    sim.run_phase("local", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const seq::AdaptiveIntersect isect(options.intersect, hub_index(hubs, r),
                                           rank_kernel_stats(options, r));
        ThreadBinner binner(options.threads);
        const bool hybrid = options.threads > 1 && sink == nullptr;
        // Accumulated here and stored once: ranks run concurrently, and
        // neighbouring counts[] slots share a cache line.
        std::uint64_t found = 0;
        auto process = [&](VertexId v, std::span<const VertexId> a_v) {
            for (const VertexId u : a_v) {
                if (!contracted && !view.is_local(u)) { continue; }
                const auto a_u = view.a_set(u);
                if (hybrid) {
                    const auto res = isect.count(a_v, a_u, v, u);
                    binner.add_task(res.ops);
                    found += res.count;
                } else {
                    found += intersect_for(self, a_v, a_u, isect, sink, v, u, 1);
                }
            }
        };
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            process(v, view.out_neighbors(v));
        }
        if (contracted) {
            for (std::size_t g = 0; g < view.num_ghosts(); ++g) {
                process(view.ghost_id(g), view.ghost_out_neighbors(g));
            }
        }
        if (hybrid) {
            self.charge_seconds(static_cast<double>(binner.makespan_ops())
                                * self.config().compute_op);
        }
        counts[r] = found;
    }, {});

    if (contracted) {
        // Alg. 3 line 8: the contracted adjacency was materialized during
        // preprocessing; the phase charges the linear pass that drops
        // non-cut edges.
        sim.run_phase("contraction", [&](net::RankHandle& self) {
            self.charge_ops(views[self.rank()].num_local_half_edges());
        }, {});
    }
    return counts;
}

CountResult run_edge_iterator(net::Simulator& sim, const std::vector<DistGraph>& views,
                              const AlgorithmOptions& options, EdgeIteratorMode mode,
                              const TriangleSink* sink, const HubIndices* hubs) {
    const Rank p = sim.num_ranks();
    CountResult result;

    const auto local_counts =
        count_local_phase(sim, views, options, mode.contracted, sink, hubs);
    std::vector<std::uint64_t> global_counts(p, 0);

    // The shipped and intersected row of a local vertex: A(v), or the
    // contracted Ac(v), which holds only non-local vertices.
    auto row = [&](const DistGraph& view, VertexId v) {
        return mode.contracted ? view.contracted_out_neighbors(v) : view.out_neighbors(v);
    };

    // --- global phase: neighborhoods across cut edges --------------------
    const net::DirectRouter direct;
    const net::GridRouter grid(p);
    const net::Router& router =
        mode.indirect ? static_cast<const net::Router&>(grid) : direct;
    std::vector<net::MessageQueue> queues;
    queues.reserve(p);
    for (Rank r = 0; r < p; ++r) {
        queues.emplace_back(auto_threshold(views[r], options), router, kTagCount);
    }

    // Optional distributed termination detection: logical records are
    // counted once when posted and once when delivered at their final PE, so
    // anything buffered (at the sender or at a proxy) keeps the global
    // counters unbalanced until it really arrives.
    net::TerminationDetector detector(p);
    const bool detect = options.detect_termination;

    // A received record is [v, row(v)...] — or [v, |row|, packed...] when
    // neighborhood compression is on; intersect with row(u) for local u.
    const bool compress = options.compress_neighborhoods;
    std::vector<VertexId> decoded;
    auto deliver = [&](net::RankHandle& self, std::span<const std::uint64_t> record) {
        const Rank r = self.rank();
        if (detect) { detector.note_received(r); }
        const DistGraph& view = views[r];
        const seq::AdaptiveIntersect isect(options.intersect, hub_index(hubs, r),
                                           rank_kernel_stats(options, r));
        KATRIC_ASSERT(!record.empty());
        const VertexId v = record[0];
        std::span<const VertexId> a_v;
        if (compress) {
            KATRIC_ASSERT(record.size() >= 2);
            const auto count = static_cast<std::size_t>(record[1]);
            net::decode_sorted(record.subspan(2), count, decoded);
            self.charge_ops(count);
            a_v = decoded;
        } else {
            a_v = record.subspan(1);
        }
        for (const VertexId u : a_v) {
            if (!view.is_local(u)) { continue; }
            global_counts[r] += intersect_for(self, a_v, row(view, u), isect, sink, v, u,
                                              options.threads);
        }
    };

    sim.run_phase(
        "global",
        [&](net::RankHandle& self) {
            const Rank r = self.rank();
            const DistGraph& view = views[r];
            net::WordVec record;
            for (VertexId v = view.first_local();
                 v < view.first_local() + view.num_local(); ++v) {
                const auto a_v = row(view, v);
                record.clear();
                for_each_surrogate(self, view, a_v, [&](Rank owner) {
                    if (record.empty()) {
                        record.push_back(v);
                        if (compress) {
                            record.push_back(a_v.size());
                            net::encode_sorted(a_v, record);
                            self.charge_ops(a_v.size());
                        } else {
                            record.insert(record.end(), a_v.begin(), a_v.end());
                        }
                    }
                    if (detect) { detector.note_sent(r); }
                    if (mode.buffered) {
                        queues[r].post(self, owner, record);
                    } else {
                        // TriC's static mode is deliberately unbuffered —
                        // one message per pull, as the baseline specifies.
                        // katric-lint: allow(raw-send): unbuffered by design
                        self.send(owner, record, kTagCount);
                    }
                });
            }
        },
        [&](net::RankHandle& self, Rank src, int tag,
            std::span<const std::uint64_t> payload) {
            if (detect && detector.handle(self, src, tag, payload)) { return; }
            KATRIC_ASSERT(tag == kTagCount);
            if (mode.buffered) {
                queues[self.rank()].handle(self, payload, deliver);
            } else {
                deliver(self, payload);
            }
        },
        [&](net::RankHandle& self) {
            if (mode.buffered) { queues[self.rank()].flush(self); }
            if (detect) { detector.on_idle(self); }
        });
    if (detect) {
        KATRIC_ASSERT_MSG(detector.all_terminated(),
                          "global phase drained without a termination verdict");
    }

    // --- reduce -----------------------------------------------------------
    std::vector<std::uint64_t> per_rank(p, 0);
    for (Rank r = 0; r < p; ++r) { per_rank[r] = local_counts[r] + global_counts[r]; }
    result.triangles = net::allreduce_sum(sim, per_rank, "reduce");
    for (Rank r = 0; r < p; ++r) {
        result.local_phase_triangles += local_counts[r];
        result.global_phase_triangles += global_counts[r];
    }
    fill_metrics(sim, result);
    return result;
}

}  // namespace katric::core
