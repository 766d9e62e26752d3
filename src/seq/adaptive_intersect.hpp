#pragma once

#include <span>
#include <vector>

#include "graph/types.hpp"
#include "obs/kernel_stats.hpp"
#include "seq/bitmap_index.hpp"
#include "seq/intersection.hpp"
#include "seq/intersection_simd.hpp"

namespace katric::seq {

/// Per-intersection kernel dispatcher — the one object the counting paths
/// talk to instead of raw IntersectKind plumbing. Given the two operand
/// spans (and, when known, their vertex IDs for hub lookup), it picks:
///
///   kind        | decision
///   ------------+------------------------------------------------------
///   merge       | scalar merge, always (the paper's kernel)
///   adaptive    | hub bitmap if indexed; else window galloping when
///               | probe_search_pays_off(|a|,|b|); else block merge
///
/// For the bitmap paths, hub∩hub additionally compares the word-AND cost
/// against probing the smaller row and takes the cheaper one. All kernels
/// return exactly the same count/elements; only the measured `ops` — and
/// therefore the simulated compute charge — differ, and they never depend
/// on the host's ISA.
///
/// When an obs::KernelStats sink is attached, every call additionally
/// records the kernel that actually fired (bucketed by smaller-operand
/// size) and, on the adaptive kind, whether the hub index served the call
/// — the dispatch-mix telemetry behind crossover tuning. With the default
/// null sink the recording branch is a single predictable test.
class AdaptiveIntersect {
public:
    AdaptiveIntersect() = default;
    explicit AdaptiveIntersect(IntersectKind kind, const HubBitmapIndex* hubs = nullptr,
                               obs::KernelStats* stats = nullptr) noexcept
        : kind_(kind), hubs_(hubs), stats_(stats) {}

    [[nodiscard]] IntersectKind kind() const noexcept { return kind_; }
    [[nodiscard]] const HubBitmapIndex* hubs() const noexcept { return hubs_; }
    [[nodiscard]] obs::KernelStats* stats() const noexcept { return stats_; }

    /// Count-only intersection. Pass the operands' vertex IDs when known —
    /// kInvalidVertex (the default) skips hub lookup for that side.
    [[nodiscard]] IntersectResult count(
        std::span<const graph::VertexId> a, std::span<const graph::VertexId> b,
        graph::VertexId a_id = graph::kInvalidVertex,
        graph::VertexId b_id = graph::kInvalidVertex) const {
        return run(a, b, nullptr, a_id, b_id);
    }

    /// Collect variant: appends the common elements to `out` in ascending
    /// order (the merge-collect contract, honored by every kernel).
    IntersectResult collect(std::span<const graph::VertexId> a,
                            std::span<const graph::VertexId> b,
                            std::vector<graph::VertexId>& out,
                            graph::VertexId a_id = graph::kInvalidVertex,
                            graph::VertexId b_id = graph::kInvalidVertex) const {
        return run(a, b, &out, a_id, b_id);
    }

private:
    IntersectResult run(std::span<const graph::VertexId> a,
                        std::span<const graph::VertexId> b,
                        std::vector<graph::VertexId>* out, graph::VertexId a_id,
                        graph::VertexId b_id) const;

    void note(obs::KernelChoice choice, std::size_t smaller) const noexcept {
        if (stats_ != nullptr) { stats_->record(choice, smaller); }
    }

    IntersectKind kind_ = IntersectKind::kMerge;
    const HubBitmapIndex* hubs_ = nullptr;
    obs::KernelStats* stats_ = nullptr;
};

}  // namespace katric::seq
