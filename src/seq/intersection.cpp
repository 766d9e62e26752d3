#include "seq/intersection.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/bits.hpp"

namespace katric::seq {

IntersectResult intersect_merge(std::span<const graph::VertexId> a,
                                std::span<const graph::VertexId> b) noexcept {
    IntersectResult result;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        ++result.ops;
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++result.count;
            ++i;
            ++j;
        }
    }
    return result;
}

std::size_t gallop_lower_bound(std::span<const graph::VertexId> haystack,
                               std::size_t from, graph::VertexId needle,
                               std::uint64_t& ops) noexcept {
    if (from >= haystack.size()) { return haystack.size(); }
    ++ops;
    if (haystack[from] >= needle) { return from; }
    // Exponential probe: windows [from+step/2, from+step] double until one
    // straddles the needle (or the end).
    std::size_t step = 1;
    std::size_t lo = from;
    std::size_t hi;
    while (true) {
        hi = from + step;
        if (hi >= haystack.size()) {
            hi = haystack.size();
            break;
        }
        ++ops;
        if (haystack[hi] >= needle) { break; }
        lo = hi;
        step *= 2;
    }
    // Binary refinement inside (lo, hi): haystack[lo] < needle ≤ haystack[hi].
    ++lo;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        ++ops;
        if (haystack[mid] < needle) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return lo;
}

bool probe_search_pays_off(std::size_t size_a, std::size_t size_b) noexcept {
    const std::size_t small = std::min(size_a, size_b);
    const std::size_t large = std::max(size_a, size_b);
    return small + large > small * (katric::ceil_log2(large + 1) + 1);
}

std::string intersect_kind_name(IntersectKind kind) {
    switch (kind) {
        case IntersectKind::kMerge: return "merge";
        case IntersectKind::kAdaptive: return "adaptive";
    }
    return "unknown";
}

IntersectKind parse_intersect_kind(const std::string& name) {
    for (const auto kind : all_intersect_kinds()) {
        if (intersect_kind_name(kind) == name) { return kind; }
    }
    KATRIC_THROW("unknown intersect kind '" << name << "' (merge|adaptive)");
}

const std::vector<IntersectKind>& all_intersect_kinds() {
    static const std::vector<IntersectKind> kinds = {IntersectKind::kMerge,
                                                     IntersectKind::kAdaptive};
    return kinds;
}

IntersectResult intersect_merge_collect(std::span<const graph::VertexId> a,
                                        std::span<const graph::VertexId> b,
                                        std::vector<graph::VertexId>& out) {
    IntersectResult result;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        ++result.ops;
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++result.count;
            out.push_back(a[i]);
            ++i;
            ++j;
        }
    }
    return result;
}

std::vector<graph::VertexId>& collect_scratch() {
    thread_local std::vector<graph::VertexId> scratch;
    return scratch;
}

}  // namespace katric::seq
