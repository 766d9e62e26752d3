#include "core/cetric.hpp"

#include <vector>

#include "core/hybrid.hpp"
#include "net/collectives.hpp"
#include "net/encoding.hpp"
#include "util/assert.hpp"

namespace katric::core {

namespace {

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

CountResult run_cetric(net::Simulator& sim, const std::vector<DistGraph>& views,
                       const AlgorithmOptions& options, bool indirect,
                       const TriangleSink* sink, const HubIndices* hubs) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(views.size() == p);
    CountResult result;

    std::vector<std::uint64_t> local_counts(p, 0);
    std::vector<std::uint64_t> global_counts(p, 0);

    // --- local phase: expanded graph V_i ∪ ∂V_i (Alg. 3 lines 5–7) -------
    // Finds all type-1 and type-2 triangles with zero communication.
    sim.run_phase("local", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const seq::AdaptiveIntersect isect(options.intersect, hub_index(hubs, r),
                                           options.kernel_stats);
        ThreadBinner binner(options.threads);
        const bool hybrid = options.threads > 1 && sink == nullptr;
        auto process = [&](VertexId v, std::span<const VertexId> a_v) {
            for (VertexId u : a_v) {
                const auto a_u = view.a_set(u);
                if (hybrid) {
                    const auto res = isect.count(a_v, a_u, v, u);
                    binner.add_task(res.ops);
                    local_counts[r] += res.count;
                } else {
                    local_counts[r] +=
                        intersect_for(self, a_v, a_u, isect, sink, v, u, 1);
                }
            }
        };
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            process(v, view.out_neighbors(v));
        }
        for (std::size_t g = 0; g < view.num_ghosts(); ++g) {
            process(view.ghost_id(g), view.ghost_out_neighbors(g));
        }
        if (hybrid) {
            self.charge_seconds(static_cast<double>(binner.makespan_ops())
                                * self.config().compute_op);
        }
    }, {});

    // --- contraction (Alg. 3 line 8) --------------------------------------
    // The contracted adjacency was materialized during preprocessing; the
    // phase charges the linear pass that drops non-cut edges.
    sim.run_phase("contraction", [&](net::RankHandle& self) {
        self.charge_ops(views[self.rank()].num_local_half_edges());
    }, {});

    // --- global phase on the cut graph (Alg. 3 lines 9–16) ---------------
    const net::DirectRouter direct;
    const net::GridRouter grid(p);
    const net::Router& router =
        indirect ? static_cast<const net::Router&>(grid) : direct;
    std::vector<net::MessageQueue> queues;
    queues.reserve(p);
    for (Rank r = 0; r < p; ++r) {
        queues.emplace_back(auto_threshold(views[r], options), router, kTagCount);
    }

    const bool compress = options.compress_neighborhoods;
    std::vector<VertexId> decoded;
    auto deliver = [&](net::RankHandle& self, std::span<const std::uint64_t> record) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const seq::AdaptiveIntersect isect(options.intersect, hub_index(hubs, r),
                                           options.kernel_stats);
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
            global_counts[r] +=
                intersect_for(self, a_v, view.contracted_out_neighbors(u), isect, sink,
                              v, u, options.threads);
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
                const auto a_v = view.contracted_out_neighbors(v);
                if (a_v.empty()) { continue; }
                record.clear();
                Rank last = r;
                for (VertexId u : a_v) {
                    self.charge_ops(1);
                    const Rank owner = view.partition().rank_of(u);
                    if (owner == last) { continue; }  // surrogate dedup
                    last = owner;
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
                    queues[r].post(self, owner, record);
                }
            }
        },
        [&](net::RankHandle& self, Rank /*src*/, int tag,
            std::span<const std::uint64_t> payload) {
            KATRIC_ASSERT(tag == kTagCount);
            queues[self.rank()].handle(self, payload, deliver);
        },
        [&](net::RankHandle& self) { queues[self.rank()].flush(self); });

    // --- reduce ------------------------------------------------------------
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
