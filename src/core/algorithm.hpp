#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/distributed_graph.hpp"
#include "net/indirection.hpp"
#include "net/message_queue.hpp"
#include "net/simulator.hpp"
#include "seq/adaptive_intersect.hpp"
#include "seq/bitmap_index.hpp"
#include "seq/intersection.hpp"

namespace katric::core {

using graph::DistGraph;
using graph::Rank;
using graph::VertexId;

/// The algorithm zoo of the paper's evaluation (Section V-B).
enum class Algorithm {
    kEdgeIteratorUnbuffered,  ///< Alg. 2 with direct per-edge sends (Fig. 2 "no buffering")
    kDitric,                  ///< dynamic aggregation + surrogate dedup (Section IV-A)
    kDitric2,                 ///< DITRIC + grid-based indirect delivery (Section IV-B)
    kCetric,                  ///< two-phase contraction algorithm (Section IV-C, Alg. 3)
    kCetric2,                 ///< CETRIC + indirect delivery
    kTricStyle,               ///< TriC-like baseline: no orientation, static single-shot buffers
    kHavoqgtStyle,            ///< HavoqGT-like baseline: vertex-centric wedge queries
};

[[nodiscard]] std::string algorithm_name(Algorithm algorithm);
[[nodiscard]] const std::vector<Algorithm>& all_algorithms();
/// Inverse of algorithm_name; empty when no algorithm has that name.
[[nodiscard]] std::optional<Algorithm> parse_algorithm(const std::string& name);

/// True when the algorithm can report every found triangle through a
/// TriangleSink (the edge-iterator family and CETRIC/CETRIC2 — the basis of
/// LCC and enumeration). The baselines count without attributing finds.
[[nodiscard]] constexpr bool algorithm_supports_sink(Algorithm algorithm) noexcept {
    return algorithm != Algorithm::kTricStyle && algorithm != Algorithm::kHavoqgtStyle;
}

/// Typed run failure reported in CountResult::error instead of a crash —
/// the facade surfaces it in Report::error.
enum class RunError : std::uint8_t {
    kNone = 0,
    /// A TriangleSink was requested with an algorithm that cannot drive one
    /// (see algorithm_supports_sink).
    kSinkUnsupported,
    /// The input data failed validation before any work ran — an edge
    /// endpoint outside the declared vertex universe, a stream batch whose
    /// events are not time-ordered, or a similarly malformed payload. The
    /// rejected operation mutated nothing.
    kInvalidInput,
};

[[nodiscard]] std::string run_error_message(RunError error, Algorithm algorithm);

struct AlgorithmOptions {
    /// δ for the dynamically buffered queue, in words. 0 = automatic:
    /// max(1024, |E_i|) per PE, the paper's O(|E_i|) linear-memory setting.
    std::uint64_t buffer_threshold_words = 0;
    seq::IntersectKind intersect = seq::IntersectKind::kMerge;
    /// Degree threshold for the hub bitmap index (kAdaptive kernel only).
    /// 0 = automatic: max(8, 4 × the rank's mean oriented row length),
    /// recomputed per rank from its local view — the graph_stats intuition
    /// that hubs are the far tail of the degree distribution.
    graph::Degree hub_threshold = 0;
    /// Hybrid mode: threads per MPI rank for the local phase (Section IV-D);
    /// 1 = plain MPI variant. A *simulated* model, charged to simulated
    /// time only — unrelated to the host threads that run the simulation
    /// (util::WorkerPool).
    int threads = 1;
    /// PEs per compute node, used by the HavoqGT-style baseline's two-level
    /// (node-aggregating) router. 1 disables node aggregation.
    Rank pes_per_node = 8;
    /// Delta–varint compression of the neighborhood lists shipped in the
    /// global phase (edge-iterator family and CETRIC). Cuts volume whenever
    /// the IDs have locality; costs ~1 op/element to encode and decode.
    bool compress_neighborhoods = false;
    /// Run the global phase with real distributed termination detection
    /// (Mattern four-counter over control messages) instead of the
    /// simulator's omniscient quiescence check. Costs extra α per report —
    /// the honesty tax a native MPI implementation pays. Supported by the
    /// whole edge-iterator family (unbuffered, DITRIC/DITRIC2 and
    /// CETRIC/CETRIC2); the baselines and CETRIC-AMQ ignore it.
    bool detect_termination = false;
    /// Optional dispatch-mix sinks threaded into every AdaptiveIntersect the
    /// run constructs (kernel chosen × operand-size bucket, hub hit/miss):
    /// points at one KernelStats per rank, and rank r records only into
    /// kernel_stats[r] (see rank_kernel_stats). Not a tuning knob and never
    /// serialized to flags: katric::Engine sets it on its per-query option
    /// copy when metrics are enabled; null keeps recording disabled.
    obs::KernelStats* kernel_stats = nullptr;

    friend bool operator==(const AlgorithmOptions&, const AlgorithmOptions&) = default;
};

/// Rank r's dispatch-mix sink, or nullptr when recording is off.
[[nodiscard]] inline obs::KernelStats* rank_kernel_stats(const AlgorithmOptions& options,
                                                         Rank r) noexcept {
    return options.kernel_stats == nullptr ? nullptr : options.kernel_stats + r;
}

/// Optional triangle observer: called once per found triangle with the
/// finding rank and the triangle's vertices. Basis of the LCC extension.
///
/// Contract: a sink may be called for different finder ranks at the same
/// time (the simulator runs ranks' start and idle callbacks concurrently
/// when it has a worker pool), never twice at once for the same finder. So
/// a sink writes only state owned by the finder rank — the built-in ones
/// do: the LCC Δ accumulators and the enumerate collector's buckets are
/// per finder. katric::Engine serializes a caller's own sink, running every
/// rank of such a query one after another.
using TriangleSink = std::function<void(Rank finder, VertexId v, VertexId u, VertexId w)>;

/// Everything the paper reports per run: the count, simulated phase times,
/// and the exact communication metrics.
struct CountResult {
    std::uint64_t triangles = 0;
    bool oom = false;  ///< ran out of per-PE memory (TriC-style behaviour)
    /// kNone on success; a typed precondition failure otherwise (the run
    /// did not execute and every metric below is zero).
    RunError error = RunError::kNone;

    // Simulated seconds (graph loading/building excluded, preprocessing
    // included — the paper's timing convention).
    double total_time = 0.0;
    double preprocessing_time = 0.0;
    double local_time = 0.0;
    double contraction_time = 0.0;
    double global_time = 0.0;
    double reduce_time = 0.0;

    // Exact communication metrics (Fig. 5 rows 2–3).
    std::uint64_t max_messages_sent = 0;    ///< max over PEs
    std::uint64_t max_words_sent = 0;       ///< bottleneck communication volume
    std::uint64_t total_messages_sent = 0;
    std::uint64_t total_words_sent = 0;
    std::uint64_t max_peak_buffer_words = 0;

    // Phase-attributed counts (test observability: type 1+2 vs type 3).
    std::uint64_t local_phase_triangles = 0;
    std::uint64_t global_phase_triangles = 0;
};

// --- shared building blocks -------------------------------------------

/// Message tag used by the counting queues.
inline constexpr int kTagCount = 1;
inline constexpr int kTagWedge = 2;
inline constexpr int kTagDelta = 3;
/// Tag of the streaming subsystem's epoch-stamped queues (src/stream/).
inline constexpr int kTagStream = 4;
/// Tag of the streaming LCC Δ-flush queues (src/stream/incremental_lcc).
inline constexpr int kTagStreamLcc = 5;

/// Intersection that charges its measured kernel cost to the PE's clock.
/// Pass operand vertex IDs when known so the dispatcher can route hub rows
/// through their bitmaps; kInvalidVertex skips the hub lookup.
inline std::uint64_t charged_intersect(net::RankHandle& self,
                                       std::span<const VertexId> a,
                                       std::span<const VertexId> b,
                                       const seq::AdaptiveIntersect& isect,
                                       VertexId a_id = graph::kInvalidVertex,
                                       VertexId b_id = graph::kInvalidVertex) {
    const auto r = isect.count(a, b, a_id, b_id);
    self.charge_ops(r.ops);
    return r.count;
}

/// True when `kind` wants the per-rank hub bitmap index materialized during
/// preprocessing.
[[nodiscard]] constexpr bool uses_hub_bitmaps(seq::IntersectKind kind) noexcept {
    return kind == seq::IntersectKind::kAdaptive;
}

/// True when a run of `algorithm` under `options` intersects through hub
/// bitmaps. The baselines never do: TriC-style skips preprocessing, and the
/// HavoqGT-style wedge baseline orients but never intersects rows.
[[nodiscard]] constexpr bool wants_hub_indices(Algorithm algorithm,
                                               const AlgorithmOptions& options) noexcept {
    return uses_hub_bitmaps(options.intersect) && algorithm != Algorithm::kTricStyle
           && algorithm != Algorithm::kHavoqgtStyle;
}

/// Effective hub-degree threshold for one rank's view (see
/// AlgorithmOptions::hub_threshold).
[[nodiscard]] graph::Degree resolve_hub_threshold(const AlgorithmOptions& options,
                                                  const DistGraph& view);

/// Every rank's hub bitmap index for one hub-threshold setting, built over
/// the oriented rows of preprocessed views, plus what building each cost.
/// Immutable once built; the indexed rows must outlive it (an index
/// fingerprints the storage it was built from).
struct HubIndices {
    std::vector<seq::HubBitmapIndex> per_rank;  ///< empty = no hub indices
    std::vector<std::uint64_t> build_ops;       ///< per rank, for replaying the build
};

/// Rank r's hub index, or nullptr when `hubs` is null or holds none.
[[nodiscard]] inline const seq::HubBitmapIndex* hub_index(const HubIndices* hubs,
                                                          Rank r) noexcept {
    return hubs == nullptr || hubs->per_rank.empty() ? nullptr : &hubs->per_rank[r];
}

/// Builds every rank's hub index over its oriented rows — A(v) for locals,
/// the rewired A(g) for ghosts — under `options`' hub threshold. Host-side:
/// nothing is charged. Requires preprocessed views.
[[nodiscard]] HubIndices build_hub_indices(const std::vector<DistGraph>& views,
                                           const AlgorithmOptions& options);

/// The recorded cost ledger of one preprocessing pass, split by phase so a
/// later run can replay it onto its own simulator without redoing the build.
/// The ledger does not depend on the algorithm options; the hub-bitmap build
/// is charged from HubIndices::build_ops instead.
struct PreprocessCosts {
    bool recorded = false;
    std::vector<std::uint64_t> assembly_ops;  ///< per rank: degree-push assembly
    /// Per-(src, dest) ghost-degree payload sizes in words — enough to replay
    /// the dense all-to-all with identical timing and message metrics.
    std::vector<std::vector<std::uint64_t>> payload_words;
    std::vector<std::uint64_t> apply_ops;  ///< per rank: degree apply + orientation scans
};

/// Runs the preprocessing of Section IV-D on the simulator — the one real
/// build: the dense all-to-all ghost-degree exchange followed by building
/// the degree-oriented (and, for CETRIC, expanded/contracted) adjacency
/// structures, plus, for the bitmap-aware kernels, every rank's hub bitmap
/// index — charging the corresponding linear work. Runs as the supersteps
/// "preprocessing:assemble" / "preprocessing:exchange" /
/// "preprocessing:apply" (aggregate with the "preprocessing*" pattern).
/// The views are read-only afterwards. Returns the hub indices (empty when
/// `options`' kernels use none); when `record` is given, the per-phase costs
/// are captured for later replay.
HubIndices run_preprocessing(net::Simulator& sim, std::vector<DistGraph>& views,
                             const AlgorithmOptions& options,
                             PreprocessCosts* record = nullptr);

/// The preprocessing option set an algorithm's build pass uses: nullopt for
/// TriC-style (no preprocessing at all), a copy with kMerge kernels for the
/// HavoqGT-style baseline (orients, but never intersects rows — no hub
/// bitmaps), the caller's options otherwise.
[[nodiscard]] std::optional<AlgorithmOptions> preprocess_options(
    Algorithm algorithm, const AlgorithmOptions& options);

/// The preprocessing front half of every algorithm that has one (all but
/// TriC-style) over already-preprocessed views: replays `replay` when given
/// — the recorded phases with the same message sizes and ops, plus the hub
/// build from `hubs` when the run intersects through hub bitmaps — or
/// charges nothing when null. The replay is metric-identical to
/// run_preprocessing with the same options. Asserts the views are
/// preprocessed and that `hubs` is present when the run wants hub indices.
void apply_preprocessing(net::Simulator& sim, const std::vector<DistGraph>& views,
                         Algorithm algorithm, const AlgorithmOptions& options,
                         const PreprocessCosts* replay, const HubIndices* hubs);

/// Per-PE automatic buffer threshold δ (Section IV-A): O(|E_i|).
[[nodiscard]] std::uint64_t auto_threshold(const DistGraph& view,
                                           const AlgorithmOptions& options);

/// Copies simulator metrics/phase times into a result.
void fill_metrics(const net::Simulator& sim, CountResult& result);

}  // namespace katric::core
