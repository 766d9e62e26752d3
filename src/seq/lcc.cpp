#include "seq/lcc.hpp"

#include "seq/edge_iterator.hpp"
#include "util/assert.hpp"

namespace katric::seq {

using graph::CsrGraph;
using graph::VertexId;

std::vector<double> lcc_from_triangle_counts(const CsrGraph& undirected,
                                             const std::vector<std::uint64_t>& delta) {
    KATRIC_ASSERT(delta.size() == undirected.num_vertices());
    std::vector<double> lcc(delta.size(), 0.0);
    for (VertexId v = 0; v < undirected.num_vertices(); ++v) {
        const auto d = undirected.degree(v);
        if (d >= 2) {
            lcc[v] = 2.0 * static_cast<double>(delta[v])
                     / (static_cast<double>(d) * static_cast<double>(d - 1));
        }
    }
    return lcc;
}

std::vector<double> local_clustering_coefficients(const CsrGraph& undirected) {
    return lcc_from_triangle_counts(undirected, per_vertex_triangles(undirected));
}

LccOracle compute_lcc_oracle(const CsrGraph& undirected) {
    LccOracle oracle;
    oracle.delta = per_vertex_triangles(undirected);
    oracle.lcc = lcc_from_triangle_counts(undirected, oracle.delta);
    return oracle;
}

double average_lcc(const CsrGraph& undirected) {
    const auto lcc = local_clustering_coefficients(undirected);
    if (lcc.empty()) { return 0.0; }
    double total = 0.0;
    for (double value : lcc) { total += value; }
    return total / static_cast<double>(lcc.size());
}

}  // namespace katric::seq
