#include "core/dist_edge_iterator.hpp"

#include <memory>
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

CountResult run_edge_iterator(net::Simulator& sim, const std::vector<DistGraph>& views,
                              const AlgorithmOptions& options, EdgeIteratorMode mode,
                              const TriangleSink* sink, const HubIndices* hubs) {
    const Rank p = sim.num_ranks();
    KATRIC_ASSERT(views.size() == p);
    CountResult result;

    std::vector<std::uint64_t> local_counts(p, 0);
    std::vector<std::uint64_t> global_counts(p, 0);

    // --- local phase: edges with both endpoints local -------------------
    sim.run_phase("local", [&](net::RankHandle& self) {
        const Rank r = self.rank();
        const DistGraph& view = views[r];
        const seq::AdaptiveIntersect isect(options.intersect, hub_index(hubs, r),
                                           options.kernel_stats);
        ThreadBinner binner(options.threads);
        const bool hybrid = options.threads > 1 && sink == nullptr;
        for (VertexId v = view.first_local(); v < view.first_local() + view.num_local();
             ++v) {
            const auto out_v = view.out_neighbors(v);
            for (VertexId u : out_v) {
                if (!view.is_local(u)) { continue; }
                if (hybrid) {
                    const auto res = isect.count(out_v, view.out_neighbors(u), v, u);
                    binner.add_task(res.ops);
                    local_counts[r] += res.count;
                } else {
                    local_counts[r] += intersect_for(self, out_v, view.out_neighbors(u),
                                                     isect, sink, v, u, 1);
                }
            }
        }
        if (hybrid) {
            self.charge_seconds(static_cast<double>(binner.makespan_ops())
                                * self.config().compute_op);
        }
    }, {});

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

    // A received record is [v, A(v)...] — or [v, |A|, packed...] when
    // neighborhood compression is on; intersect with A(u) for local u.
    const bool compress = options.compress_neighborhoods;
    std::vector<VertexId> decoded;
    auto deliver = [&](net::RankHandle& self, std::span<const std::uint64_t> record) {
        const Rank r = self.rank();
        if (detect) { detector.note_received(r); }
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
            global_counts[r] += intersect_for(self, a_v, view.out_neighbors(u), isect,
                                              sink, v, u, options.threads);
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
                const auto out_v = view.out_neighbors(v);
                record.clear();
                Rank last = r;  // r is never a send target for its own vertices
                for (VertexId u : out_v) {
                    self.charge_ops(1);
                    if (view.is_local(u)) { continue; }
                    const Rank owner = view.partition().rank_of(u);
                    if (owner == last) { continue; }  // surrogate: already sent there
                    last = owner;
                    if (record.empty()) {
                        record.push_back(v);
                        if (compress) {
                            record.push_back(out_v.size());
                            net::encode_sorted(out_v, record);
                            self.charge_ops(out_v.size());
                        } else {
                            record.insert(record.end(), out_v.begin(), out_v.end());
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
                }
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
