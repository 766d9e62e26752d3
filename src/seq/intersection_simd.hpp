#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.hpp"
#include "seq/intersection.hpp"

namespace katric::seq {

/// Vector intersection kernels: a block merge and a window galloping loop,
/// each written once over a 4-lane primitive pair with one portable and one
/// AVX2 implementation. Every call checks the ISA once and runs the AVX2
/// pair when simd_available(), the portable pair otherwise. Both pairs
/// compute the same lane masks, so count, collected output *and charged
/// ops* are identical on every host: simulated metrics never depend on the
/// CPU. Compiling with KATRIC_ENABLE_SIMD only *adds* the AVX2 pair behind
/// function-level target attributes — no -march=native requirement.
///
/// Op-cost model (ISA-independent): one 4×4 block comparison is charged
/// kSimdMergeBlockOps, one window compare 1 op, and every scalar tail or
/// gallop comparison 1 op, exactly like intersect_merge (see
/// docs/kernels.md).
inline constexpr std::uint64_t kSimdMergeBlockOps = 3;

/// True iff the AVX2 pair will actually run: compiled in, CPU supports
/// AVX2, not overridden by force_scalar_simd() or KATRIC_FORCE_SCALAR=1 in
/// the environment (the CI hook for exercising the portable pair on SIMD
/// hardware). Changes host time only, never results or ops.
[[nodiscard]] bool simd_available() noexcept;

/// Test hook: force (or un-force) the portable pair regardless of CPU
/// support. The differential tests run every kernel through both pairs.
void force_scalar_simd(bool force) noexcept;

/// Block merge: compares 4-element blocks of both inputs all-pairs,
/// advancing the block with the smaller maximum, then merges the scalar
/// tail. Same count as intersect_merge.
[[nodiscard]] IntersectResult intersect_simd_merge(
    std::span<const graph::VertexId> a, std::span<const graph::VertexId> b) noexcept;

/// Collect variant (ascending output, appends to `out`), the SIMD sibling
/// of intersect_merge_collect.
IntersectResult intersect_simd_merge_collect(std::span<const graph::VertexId> a,
                                             std::span<const graph::VertexId> b,
                                             std::vector<graph::VertexId>& out);

/// Window galloping: walks the smaller set with a shared cursor into the
/// larger one; each probe first compares one 4-lane window at the cursor
/// (1 charged op) and gallops (gallop_lower_bound) only beyond it.
[[nodiscard]] IntersectResult intersect_simd_galloping(
    std::span<const graph::VertexId> a, std::span<const graph::VertexId> b) noexcept;

IntersectResult intersect_simd_galloping_collect(std::span<const graph::VertexId> a,
                                                 std::span<const graph::VertexId> b,
                                                 std::vector<graph::VertexId>& out);

}  // namespace katric::seq
