#include "seq/intersection_simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>

#if defined(KATRIC_ENABLE_SIMD) && (defined(__x86_64__) || defined(_M_X64)) \
    && (defined(__GNUC__) || defined(__clang__))
#define KATRIC_SIMD_X86 1
#include <immintrin.h>
#else
#define KATRIC_SIMD_X86 0
#endif

namespace katric::seq {

namespace {

using graph::VertexId;

std::atomic<bool> g_force_scalar{false};

bool cpu_has_avx2() noexcept {
#if KATRIC_SIMD_X86
    // Cached once: cpuid is not free and the answer never changes. The
    // KATRIC_FORCE_SCALAR env var is the headless/CI override.
    static const bool supported = [] {
        if (const char* env = std::getenv("KATRIC_FORCE_SCALAR");
            env != nullptr && env[0] != '\0' && env[0] != '0') {
            return false;
        }
        return __builtin_cpu_supports("avx2") != 0;
    }();
    return supported;
#else
    return false;
#endif
}

// --- the 4-lane primitive pair ------------------------------------------
//
// Every vector kernel below is written once, over a `Lanes` type with two
// primitives on 4-element windows. Both implementations return the same
// masks and counts for every input, so a kernel charges the same ops
// whichever pair runs it.

/// Portable lanes: plain loops over the four elements.
struct PortableLanes {
    /// Bit k set ⇔ a[k] equals some b[l]. Sorted duplicate-free blocks give
    /// every lane at most one partner, so the popcount is the match count.
    static int block_match_mask(const VertexId* a, const VertexId* b) noexcept {
        int mask = 0;
        for (int k = 0; k < 4; ++k) {
            const bool hit = (a[k] == b[0]) | (a[k] == b[1]) | (a[k] == b[2])
                             | (a[k] == b[3]);
            mask |= static_cast<int>(hit) << k;
        }
        return mask;
    }

    /// How many of data[0..4) are < needle (0…4); for a sorted window this
    /// is the in-window lower bound.
    static unsigned window_less_count(const VertexId* data, VertexId needle) noexcept {
        return static_cast<unsigned>(data[0] < needle) + (data[1] < needle)
               + (data[2] < needle) + (data[3] < needle);
    }
};

#if KATRIC_SIMD_X86

/// AVX2 lanes: one 4×64-bit register per window.
struct Avx2Lanes {
    __attribute__((target("avx2"))) static int lane_mask(__m256i match) noexcept {
        return _mm256_movemask_pd(_mm256_castsi256_pd(match));
    }

    /// Three lane rotations of b cover every (a-lane, b-lane) pairing.
    __attribute__((target("avx2"))) static int block_match_mask(
        const VertexId* a, const VertexId* b) noexcept {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b));
        __m256i match = _mm256_cmpeq_epi64(va, vb);
        __m256i rot = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(0, 3, 2, 1));
        match = _mm256_or_si256(match, _mm256_cmpeq_epi64(va, rot));
        rot = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(1, 0, 3, 2));
        match = _mm256_or_si256(match, _mm256_cmpeq_epi64(va, rot));
        rot = _mm256_permute4x64_epi64(vb, _MM_SHUFFLE(2, 1, 0, 3));
        match = _mm256_or_si256(match, _mm256_cmpeq_epi64(va, rot));
        return lane_mask(match);
    }

    /// AVX2 only has a *signed* 64-bit compare; XOR-ing both sides with the
    /// sign bit maps unsigned order onto signed order, so IDs with bit 63
    /// set (e.g. flag-annotated words) compare exactly like the portable
    /// lanes.
    __attribute__((target("avx2"))) static unsigned window_less_count(
        const VertexId* data, VertexId needle) noexcept {
        const __m256i sign = _mm256_set1_epi64x(static_cast<long long>(1ull << 63));
        const __m256i window = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data)), sign);
        const __m256i pivot =
            _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(needle)), sign);
        const int less = lane_mask(_mm256_cmpgt_epi64(pivot, window));
        return static_cast<unsigned>(std::popcount(static_cast<unsigned>(less)));
    }
};

#endif  // KATRIC_SIMD_X86

// --- the two kernels ------------------------------------------------------

/// Block merge: compares 4-element blocks of both inputs all-pairs and
/// advances the block with the smaller maximum, then finishes the scalar
/// tail. Every (a-block, b-block) cell on the staircase is visited exactly
/// once, so counting matches per cell never double counts, and lane-order
/// emission keeps collect output ascending.
template <typename Lanes>
IntersectResult block_merge(std::span<const VertexId> a, std::span<const VertexId> b,
                            std::vector<VertexId>* out) {
    IntersectResult result;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i + 4 <= a.size() && j + 4 <= b.size()) {
        const int mask = Lanes::block_match_mask(a.data() + i, b.data() + j);
        result.ops += kSimdMergeBlockOps;
        if (mask != 0) {
            result.count += static_cast<std::uint64_t>(std::popcount(
                static_cast<unsigned>(mask)));
            if (out != nullptr) {
                for (int lane = 0; lane < 4; ++lane) {
                    if ((mask & (1 << lane)) != 0) { out->push_back(a[i + lane]); }
                }
            }
        }
        const VertexId a_max = a[i + 3];
        const VertexId b_max = b[j + 3];
        if (a_max <= b_max) { i += 4; }
        if (b_max <= a_max) { j += 4; }
    }
    while (i < a.size() && j < b.size()) {
        ++result.ops;
        if (a[i] < b[j]) {
            ++i;
        } else if (b[j] < a[i]) {
            ++j;
        } else {
            ++result.count;
            if (out != nullptr) { out->push_back(a[i]); }
            ++i;
            ++j;
        }
    }
    return result;
}

/// Window galloping: walk `small` with a shared forward cursor into
/// `large`. Each probe first compares one 4-lane window at the cursor
/// (1 op) and gallops (gallop_lower_bound) only beyond it.
template <typename Lanes>
IntersectResult window_gallop(std::span<const VertexId> small,
                              std::span<const VertexId> large,
                              std::vector<VertexId>* out) {
    IntersectResult result;
    std::size_t pos = 0;
    for (const VertexId x : small) {
        if (pos + 4 <= large.size()) {
            ++result.ops;
            const unsigned less = Lanes::window_less_count(large.data() + pos, x);
            pos = less < 4 ? pos + less
                           : gallop_lower_bound(large, pos + 4, x, result.ops);
        } else {
            pos = gallop_lower_bound(large, pos, x, result.ops);
        }
        if (pos == large.size()) { break; }  // every later probe is larger still
        ++result.ops;
        if (large[pos] == x) {
            ++result.count;
            if (out != nullptr) { out->push_back(x); }
            ++pos;
        }
    }
    return result;
}

// --- one ISA check per call -------------------------------------------------

#if KATRIC_SIMD_X86
// `flatten` inlines the kernel and its lane primitives into these AVX2
// entry points, so the vector code runs without a call per window.
__attribute__((target("avx2"), flatten)) IntersectResult block_merge_avx2(
    std::span<const VertexId> a, std::span<const VertexId> b,
    std::vector<VertexId>* out) {
    return block_merge<Avx2Lanes>(a, b, out);
}

__attribute__((target("avx2"), flatten)) IntersectResult window_gallop_avx2(
    std::span<const VertexId> small, std::span<const VertexId> large,
    std::vector<VertexId>* out) {
    return window_gallop<Avx2Lanes>(small, large, out);
}
#endif

IntersectResult simd_merge(std::span<const VertexId> a, std::span<const VertexId> b,
                           std::vector<VertexId>* out) {
#if KATRIC_SIMD_X86
    if (simd_available()) { return block_merge_avx2(a, b, out); }
#endif
    return block_merge<PortableLanes>(a, b, out);
}

IntersectResult simd_galloping(std::span<const VertexId> a, std::span<const VertexId> b,
                               std::vector<VertexId>* out) {
    const bool a_small = a.size() <= b.size();
    const auto small = a_small ? a : b;
    const auto large = a_small ? b : a;
#if KATRIC_SIMD_X86
    if (simd_available()) { return window_gallop_avx2(small, large, out); }
#endif
    return window_gallop<PortableLanes>(small, large, out);
}

}  // namespace

bool simd_available() noexcept {
    return cpu_has_avx2() && !g_force_scalar.load(std::memory_order_relaxed);
}

void force_scalar_simd(bool force) noexcept {
    g_force_scalar.store(force, std::memory_order_relaxed);
}

IntersectResult intersect_simd_merge(std::span<const VertexId> a,
                                     std::span<const VertexId> b) noexcept {
    return simd_merge(a, b, nullptr);
}

IntersectResult intersect_simd_merge_collect(std::span<const VertexId> a,
                                             std::span<const VertexId> b,
                                             std::vector<VertexId>& out) {
    return simd_merge(a, b, &out);
}

IntersectResult intersect_simd_galloping(std::span<const VertexId> a,
                                         std::span<const VertexId> b) noexcept {
    return simd_galloping(a, b, nullptr);
}

IntersectResult intersect_simd_galloping_collect(std::span<const VertexId> a,
                                                 std::span<const VertexId> b,
                                                 std::vector<VertexId>& out) {
    return simd_galloping(a, b, &out);
}

}  // namespace katric::seq
