#include "seq/parallel_local.hpp"

#include <omp.h>

#include <algorithm>
#include <vector>

#include "seq/intersection.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"

namespace katric::seq {

using graph::VertexId;

ParallelCountResult count_oriented_parallel(const graph::CsrGraph& oriented,
                                            int num_threads) {
    KATRIC_ASSERT(oriented.is_oriented());
    KATRIC_ASSERT(num_threads >= 1);
    ParallelCountResult result;
    result.threads = num_threads;

    std::vector<std::uint64_t> thread_triangles(static_cast<std::size_t>(num_threads), 0);
    std::vector<std::uint64_t> thread_ops(static_cast<std::size_t>(num_threads), 0);

    WallTimer timer;
    const auto n = static_cast<std::int64_t>(oriented.num_vertices());
#pragma omp parallel num_threads(num_threads)
    {
        const auto tid = static_cast<std::size_t>(omp_get_thread_num());
        std::uint64_t local_triangles = 0;
        std::uint64_t local_ops = 0;
        // Dynamic chunks approximate edge-centric work stealing: vertices
        // with heavy out-neighborhoods no longer serialize a single thread.
#pragma omp for schedule(dynamic, 64)
        for (std::int64_t sv = 0; sv < n; ++sv) {
            const auto v = static_cast<VertexId>(sv);
            const auto out_v = oriented.neighbors(v);
            for (VertexId u : out_v) {
                const auto r = intersect_merge(out_v, oriented.neighbors(u));
                local_triangles += r.count;
                local_ops += r.ops;
            }
        }
        thread_triangles[tid] = local_triangles;
        thread_ops[tid] = local_ops;
    }
    result.wall_seconds = timer.elapsed_seconds();

    for (std::size_t t = 0; t < thread_triangles.size(); ++t) {
        result.triangles += thread_triangles[t];
        result.ops += thread_ops[t];
        result.max_thread_ops = std::max(result.max_thread_ops, thread_ops[t]);
    }
    return result;
}

}  // namespace katric::seq
