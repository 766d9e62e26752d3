#include "seq/adaptive_intersect.hpp"

#include <algorithm>
#include <optional>

namespace katric::seq {

namespace {

/// Resolves which side (if any) can be served from the hub index. Returns
/// the intersection result, or nullopt when neither row is covered. On
/// success `choice` reports which bitmap kernel ran.
std::optional<IntersectResult> try_bitmap(const HubBitmapIndex* hubs,
                                          std::span<const graph::VertexId> a,
                                          std::span<const graph::VertexId> b,
                                          graph::VertexId a_id, graph::VertexId b_id,
                                          std::vector<graph::VertexId>* out,
                                          obs::KernelChoice& choice) {
    if (hubs == nullptr || hubs->empty()) { return std::nullopt; }
    // No row shorter than the smallest indexed row can be covered, so such
    // operands — the vast majority of calls — skip the hash probe entirely;
    // candidates resolve slot + covers() in one lookup.
    const auto gate = hubs->min_indexed_row();
    const auto* a_hub = a_id != graph::kInvalidVertex && a.size() >= gate
                            ? hubs->lookup(a_id, a)
                            : nullptr;
    const auto* b_hub = b_id != graph::kInvalidVertex && b.size() >= gate
                            ? hubs->lookup(b_id, b)
                            : nullptr;
    if (a_hub != nullptr && b_hub != nullptr && out == nullptr) {
        // Word-AND + popcount, unless probing the smaller row through the
        // other's bitmap is cheaper (sparse rows in a large universe).
        const std::uint64_t probe_cost = std::min(a.size(), b.size());
        if (hubs->words_per_row() <= probe_cost) {
            choice = obs::KernelChoice::kBitmapHubHub;
            return hubs->intersect_hub_hub(*a_hub, *b_hub);
        }
    }
    choice = obs::KernelChoice::kBitmapProbe;
    if (b_hub != nullptr && !(a_hub != nullptr && a.size() > b.size())) {
        // Probe the (typically smaller) non-hub side through b's bitmap.
        return out == nullptr ? hubs->intersect_count(*b_hub, a)
                              : hubs->intersect_collect(*b_hub, a, *out);
    }
    if (a_hub != nullptr) {
        return out == nullptr ? hubs->intersect_count(*a_hub, b)
                              : hubs->intersect_collect(*a_hub, b, *out);
    }
    return std::nullopt;
}

}  // namespace

IntersectResult AdaptiveIntersect::run(std::span<const graph::VertexId> a,
                                       std::span<const graph::VertexId> b,
                                       std::vector<graph::VertexId>* out,
                                       graph::VertexId a_id, graph::VertexId b_id) const {
    const std::size_t smaller = std::min(a.size(), b.size());
    if (kind_ == IntersectKind::kMerge) {
        note(obs::KernelChoice::kMerge, smaller);
        return out == nullptr ? intersect_merge(a, b)
                              : intersect_merge_collect(a, b, *out);
    }
    obs::KernelChoice bitmap_choice = obs::KernelChoice::kBitmapProbe;
    if (auto r = try_bitmap(hubs_, a, b, a_id, b_id, out, bitmap_choice)) {
        if (stats_ != nullptr) {
            ++stats_->hub_hits;
            stats_->record(bitmap_choice, smaller);
        }
        return *r;
    }
    if (stats_ != nullptr && hubs_ != nullptr && !hubs_->empty()) {
        ++stats_->hub_misses;
    }
    if (probe_search_pays_off(a.size(), b.size())) {
        note(obs::KernelChoice::kGalloping, smaller);
        return out == nullptr ? intersect_simd_galloping(a, b)
                              : intersect_simd_galloping_collect(a, b, *out);
    }
    note(obs::KernelChoice::kSimdMerge, smaller);
    return out == nullptr ? intersect_simd_merge(a, b)
                          : intersect_simd_merge_collect(a, b, *out);
}

}  // namespace katric::seq
