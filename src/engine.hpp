#pragma once

#include <atomic>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "config.hpp"
#include "core/approx.hpp"
#include "core/dist_lcc.hpp"
#include "core/enumerate.hpp"
#include "core/runner.hpp"
#include "graph/distributed_graph.hpp"
#include "obs/observability.hpp"
#include "report.hpp"
#include "stream/stream_runner.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace katric {

class Engine;

/// A streaming session promoted from an Engine's built state
/// (Engine::open_stream): the engine's partition is reused to build every
/// rank's DynamicDistGraph — no second partitioning pass — and batches are
/// then ingested incrementally on a dedicated simulated machine, whose
/// supersteps run their ranks on all cores. One client: ingest() must not
/// be called from two threads at once.
class StreamSession {
public:
    StreamSession(StreamSession&&) = default;
    StreamSession& operator=(StreamSession&&) = default;
    StreamSession(const StreamSession&) = delete;
    StreamSession& operator=(const StreamSession&) = delete;

    /// Ingests one batch (delete/apply/insert supersteps, plus the Δ flush
    /// when the session maintains LCC); returns its stats (by value — the
    /// copy is a handful of counters and stays valid across later ingests).
    stream::BatchStats ingest(const stream::EdgeBatch& batch);

    [[nodiscard]] std::uint64_t triangles() const noexcept;
    [[nodiscard]] const core::CountResult& initial() const noexcept { return initial_; }
    [[nodiscard]] const std::vector<stream::BatchStats>& batches() const noexcept {
        return batches_;
    }
    [[nodiscard]] bool maintains_lcc() const noexcept { return lcc_ != nullptr; }

    /// Host-side per-vertex state (only when the session maintains LCC).
    [[nodiscard]] std::vector<std::uint64_t> delta() const;
    [[nodiscard]] std::vector<double> lcc() const;

    /// Host-side reassembly of the session's current global graph (the
    /// full-recount baseline in the streaming benches).
    [[nodiscard]] graph::CsrGraph materialize_global() const;

    /// The unified result surface: a kStream Report reflecting everything
    /// ingested so far. Callable between batches.
    [[nodiscard]] Report report() const;

    ~StreamSession();

private:
    friend class Engine;
    StreamSession(const graph::CsrGraph& graph, const graph::Partition1D& partition,
                  Config config, core::CountResult initial,
                  std::vector<std::uint64_t> initial_delta,
                  std::shared_ptr<obs::Observability> obs);

    Config config_;
    /// Shared with (and outliving) the spawning Engine: ingest latency
    /// samples land in the registry, and the session's simulated timeline is
    /// appended to the trace when the session ends.
    std::shared_ptr<obs::Observability> obs_;
    core::CountResult initial_;
    // Heap-held so the counter's pointers into them survive session moves.
    std::unique_ptr<net::Simulator> sim_;
    std::unique_ptr<std::vector<stream::DynamicDistGraph>> views_;
    std::unique_ptr<stream::IncrementalCounter> counter_;
    std::unique_ptr<stream::IncrementalLcc> lcc_;
    std::vector<stream::BatchStats> batches_;
};

/// Per-query overrides on an Engine's configured defaults — the sweep and
/// ablation workloads: one build, many variants. Unset fields inherit the
/// engine's Config.
struct QueryOptions {
    std::optional<core::Algorithm> algorithm;
    /// Whole-struct override of Config::options (kernel, buffer threshold,
    /// threads, compression, …) for this query alone.
    std::optional<core::AlgorithmOptions> options;
    /// approx_count only: override Config::amq.
    std::optional<core::AmqOptions> amq;
    /// Override Config::recovery for this query alone (what to do when the
    /// hardened layer detects an unrecoverable fault).
    std::optional<fault::RecoveryPolicy> recovery;
    /// Per-query deadline in host wall-clock seconds, checked cooperatively
    /// at superstep boundaries; overrides Config::deadline_seconds. An
    /// expired deadline surfaces as ServeError::kDeadline. 0 = none.
    std::optional<double> deadline_seconds;
    /// Borrowed cooperative-cancellation handle: cancel() aborts the query
    /// at the next superstep boundary (also ServeError::kDeadline). Must
    /// outlive the query; null = deadline-only cancellation.
    const fault::CancelToken* cancel = nullptr;
};

/// Engine::serve tuning. Zero-valued fields fall back to the engine's
/// Config (--serve-threads / --queue-depth), then to the built-in defaults
/// (4 workers, 64 queued requests).
struct ServeOptions {
    int threads = 0;
    std::size_t queue_depth = 0;
};

/// One submission to a ServeSession: which query to run, its per-query
/// overrides, and an admission priority (higher drains first; FIFO within a
/// priority class). Query::kStream cannot be served — streaming mutates the
/// views; its future resolves to a ServeError::kUnsupported report.
struct ServeRequest {
    Query query = Query::kCount;
    QueryOptions options;
    int priority = 0;
    /// Submit-to-completion deadline in host wall-clock seconds (0 = the
    /// engine's Config::deadline_seconds, which may itself be 0 = none).
    /// A request still queued past its deadline is load-shed — its future
    /// resolves to ServeError::kDeadline without running; one picked up in
    /// time runs with the remaining budget as its cooperative query
    /// deadline, cancelled at the next superstep boundary once it expires.
    double deadline_seconds = 0.0;
};

/// A concurrent query-serving session over one Engine's shared state
/// (Engine::serve): a fixed worker pool drains an admission queue of
/// submitted queries, each running on its own fresh simulated machine
/// against the engine's const views. Reports are bit-identical to the same
/// queries run sequentially on the engine.
///
/// Admission: the queue is bounded (ServeOptions::queue_depth). When it is
/// full, submit() completes the returned future *immediately* with a report
/// carrying ServeError::kRejected — the submitter is never blocked. After
/// drain() (or destruction begins), submissions resolve to
/// ServeError::kStopped.
///
/// Lifetime: the session borrows the engine; the engine must outlive it.
/// drain() — idempotent, also run by the destructor — closes admission,
/// finishes everything already accepted, and joins the workers.
class ServeSession {
public:
    ServeSession(ServeSession&&) noexcept;
    ServeSession& operator=(ServeSession&&) noexcept;
    ServeSession(const ServeSession&) = delete;
    ServeSession& operator=(const ServeSession&) = delete;
    ~ServeSession();

    /// Submits one query for asynchronous execution. Always returns a valid
    /// future: fulfilled by a worker on success, or immediately with a
    /// typed-error report (kRejected / kStopped / kUnsupported) when the
    /// request is not admitted. Thread-safe.
    std::future<Report> submit(const ServeRequest& request);
    std::future<Report> submit(const QueryOptions& options) {
        ServeRequest request;
        request.options = options;
        return submit(request);
    }

    /// Closes admission, runs everything already accepted, joins the
    /// workers. Idempotent; called by the destructor. After it returns every
    /// previously returned future is ready.
    void drain();

    /// Monotone session counters plus submit-to-completion latency
    /// percentiles (host wall-clock seconds, sampled per completed query).
    /// The rejection-reason breakdown makes overload diagnosable: queue-full
    /// says raise --queue-depth or slow the clients, stopped says a client
    /// submitted into a draining session, deadline-shed says the queue wait
    /// alone already blew the latency budget.
    struct Stats {
        std::size_t submitted = 0;  ///< accepted into the queue
        std::size_t completed = 0;  ///< futures fulfilled by a worker
        std::size_t rejected = 0;   ///< kRejected + kStopped + kUnsupported
        std::size_t rejected_queue_full = 0;    ///< ServeError::kRejected
        std::size_t rejected_stopped = 0;       ///< ServeError::kStopped
        std::size_t rejected_unsupported = 0;   ///< ServeError::kUnsupported
        /// Admitted, but expired while still queued: load-shed by the worker
        /// without running (future resolves to ServeError::kDeadline). Not
        /// part of `rejected` — the request was accepted; counted neither in
        /// `completed`. Requests cancelled mid-run count as completed (their
        /// report carries the kDeadline error).
        std::size_t shed_deadline = 0;
        double latency_p50 = 0.0;
        double latency_p99 = 0.0;
        double latency_max = 0.0;
    };
    [[nodiscard]] Stats stats() const;

    [[nodiscard]] int threads() const noexcept;
    [[nodiscard]] std::size_t queue_depth() const noexcept;

private:
    friend class Engine;
    ServeSession(Engine& engine, const ServeOptions& options);

    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// The library's session facade — build the expensive distributed state
/// once, run many queries against it.
///
/// Construction pays the full pipeline head: partitioning (uniform or
/// edge-balanced, or an injected custom Partition1D) and every simulated
/// PE's DistGraph view of the input. The first query that needs it runs the
/// preprocessing of Section IV-D — ghost-degree exchange, orientation, hub
/// bitmaps — exactly once, on a throwaway simulated machine, and records
/// its cost ledger; the views are read-only from then on. Each query runs on
/// a *fresh* simulated machine over the shared views and, with
/// Config::charge_preprocessing (the default), replays the ledger first, so
/// its report is bit-identical to building the views on its own machine
/// (tested) while the host-side build is paid once. Without the charge, a
/// query's op/time telemetry omits the preprocessing; counts and result
/// payloads stay exact.
///
///   katric::Engine engine(graph, katric::Config::preset("paper-cetric"));
///   auto count = engine.count();              // Report
///   auto lcc = engine.lcc();                  // same built state
///   auto stream = engine.open_stream();       // promote to dynamic views
///
/// The graph must outlive the engine (the views reference its partition
/// only; the graph itself is re-read when a query needs global degrees).
///
/// Host parallelism: a query called directly on the engine, and every batch
/// a StreamSession ingests, runs the per-rank work of each superstep (every
/// rank's start and idle callbacks) on all cores, through the process-wide
/// util::WorkerPool. Queries served by a ServeSession run their ranks one
/// after another on the worker thread — the session already keeps one query
/// per worker busy — as do the one preprocessing build, a stream session's
/// one-time setup and any query that feeds a caller's TriangleSink, so the
/// sink sees one call at a time, in a fixed order. There is no knob: reports
/// and batch stats are bit-identical either way.
///
/// Thread safety: queries may run concurrently from several threads
/// (Engine::serve's worker pool, or direct calls). The one build runs under
/// std::call_once before any query reads the views; hub indices for a new
/// hub threshold are built once under a mutex into an immutable cache.
/// Which query triggers a build never changes any report. open_stream/
/// stream are NOT concurrent-safe — promote to streaming only with no serve
/// session open.
class Engine {
public:
    Engine(const graph::CsrGraph& graph, Config config);
    /// Injected-partition form: run on a caller-supplied 1-D partition (the
    /// load-balance ablation's cost-function splits) instead of the strategy
    /// named by Config::partition. The partition must cover the graph's
    /// vertices and have exactly Config::num_ranks ranks.
    Engine(const graph::CsrGraph& graph, Config config, graph::Partition1D partition);

    [[nodiscard]] const Config& config() const noexcept { return config_; }
    [[nodiscard]] const graph::CsrGraph& graph() const noexcept { return *graph_; }
    [[nodiscard]] const graph::Partition1D& partition() const noexcept {
        return partition_;
    }
    /// How many partition+distribute passes this engine paid (always 1 —
    /// the amortization evidence a sweep bench reports against the k passes
    /// of k one-shot runs).
    [[nodiscard]] std::size_t build_passes() const noexcept { return build_passes_; }
    [[nodiscard]] std::size_t queries_run() const noexcept {
        return queries_.load(std::memory_order_relaxed);
    }
    /// Preprocessing builds paid so far: 0 before the first query, then 1
    /// plus one per additional hub-threshold setting whose hub indices a
    /// query needed.
    [[nodiscard]] std::size_t preprocess_builds() const;

    /// The session's observability instance (Config::metrics /
    /// Config::trace_out); null when both are off. Benches read the metrics
    /// registry and kernel dispatch mix through this.
    [[nodiscard]] const std::shared_ptr<obs::Observability>& observability()
        const noexcept {
        return obs_;
    }
    /// Human-readable metrics snapshot (registry + kernel dispatch mix);
    /// empty when observability is off.
    [[nodiscard]] std::string metrics_summary() const;

    /// True when queries run on the hardened message layer (Config::harden
    /// or a non-empty Config::fault_spec).
    [[nodiscard]] bool hardening_enabled() const noexcept {
        return config_.harden || injector_.has_value();
    }

    // --- queries (each runs on a fresh simulated machine) ----------------
    /// Exact triangle count with the configured algorithm, or per-query
    /// overrides (the sweep workload: one build, k algorithm/option sets).
    Report count() { return count(nullptr, QueryOptions{}); }
    Report count(core::Algorithm algorithm) {
        QueryOptions query;
        query.algorithm = algorithm;
        return count(nullptr, query);
    }
    Report count(const QueryOptions& query) { return count(nullptr, query); }
    Report count(const core::TriangleSink* sink, const QueryOptions& query = {});

    /// Distributed local clustering coefficients (Report::delta / ::lcc).
    Report lcc(const QueryOptions& query = {});
    Report lcc(core::Algorithm algorithm) {
        QueryOptions query;
        query.algorithm = algorithm;
        return lcc(query);
    }

    /// Exactly-once triangle enumeration. Without a sink the canonical
    /// sorted list lands in Report::triangles (empty when the run failed;
    /// found_per_rank still says what each rank found); with a sink every
    /// find is forwarded to it instead (streaming enumeration — nothing
    /// collected).
    Report enumerate() { return enumerate(nullptr, QueryOptions{}); }
    Report enumerate(const QueryOptions& query) { return enumerate(nullptr, query); }
    Report enumerate(const core::TriangleSink& sink, const QueryOptions& query = {}) {
        return enumerate(&sink, query);
    }

    /// Approximate count via the CETRIC-AMQ Bloom-filter global phase,
    /// configured by Config::amq (or per-query overrides).
    Report approx_count(const QueryOptions& query = {});
    Report approx_count(const core::AmqOptions& amq) {
        QueryOptions query;
        query.amq = amq;
        return approx_count(query);
    }

    /// Promotes the built state into a streaming session: the initial count
    /// (and, with Config::maintain_lcc, the initial Δ vector) is computed on
    /// the shared static views, then the engine's partition is reused to
    /// build the dynamic per-rank views — no second partitioning pass.
    [[nodiscard]] StreamSession open_stream();

    /// Convenience: open_stream + ingest every batch (observer fires after
    /// each) + the final kStream Report.
    Report stream(const std::vector<stream::EdgeBatch>& batches,
                  const stream::BatchObserver& observer = {});

    /// Opens a concurrent serving session over this engine's built state: a
    /// worker pool drains submitted queries against the shared views, each
    /// on its own fresh simulated machine (see ServeSession). The engine
    /// must outlive the session.
    [[nodiscard]] ServeSession serve(const ServeOptions& options = {});

private:
    friend struct ServeSession::Impl;

    Report enumerate(const core::TriangleSink* sink, const QueryOptions& query);

    // The query bodies behind the public methods. `pool` runs each
    // superstep's rank callbacks: the process-wide pool for a direct query,
    // null (ranks one after another on the calling thread) for a served
    // query or one feeding a caller's sink.
    Report count_impl(const core::TriangleSink* sink, const QueryOptions& query,
                      util::WorkerPool* pool);
    Report lcc_impl(const QueryOptions& query, util::WorkerPool* pool);
    Report enumerate_impl(const core::TriangleSink* sink, const QueryOptions& query,
                          util::WorkerPool* pool);
    /// approx_count body; `arm` gates the hardened layer so the kDegrade
    /// fallback can run approximate counting with injection off (retrying
    /// the same faulty machine would be pointless).
    Report approx_impl(const QueryOptions& query, bool arm, util::WorkerPool* pool);
    /// Ops telemetry, per-phase breakdown, typed-error propagation, and
    /// observability recording shared by every query. `wall_seconds` is the
    /// query's host-side latency (the serving p50/p99 substrate);
    /// `kernel_stats` the query's per-rank dispatch mix, merged in rank
    /// order (empty = none recorded).
    void finalize(Report& report, const net::Simulator& sim, double wall_seconds,
                  std::span<const obs::KernelStats> kernel_stats);
    /// Config::run_spec with the query's overrides applied.
    [[nodiscard]] core::RunSpec query_spec(const QueryOptions& query) const;

    /// What a query hands the core entry points: the ledger to replay (null
    /// when Config::charge_preprocessing is off) and the hub indices its
    /// kernels use (null when none).
    struct Prepared {
        const core::PreprocessCosts* replay = nullptr;
        const core::HubIndices* hubs = nullptr;
    };
    /// Runs the one preprocessing build if no query has yet, and looks up
    /// (building on first use) the hub indices `spec` intersects through.
    /// Thread-safe.
    [[nodiscard]] Prepared prepare(const core::RunSpec& spec);

    /// Per-query hardening context: the fault counters and the query's
    /// cancel token (deadline-armed, chained onto a caller token). Lives on
    /// the query method's stack; the simulator borrows it for the run.
    struct QueryGuard {
        fault::FaultStats stats;
        fault::CancelToken token;
        bool armed = false;
    };
    /// Arms the hardened message layer on a fresh simulator when the config
    /// (harden / fault_spec) or the query (deadline, cancel) asks for it.
    void arm_simulator(net::Simulator& sim, const QueryOptions& query,
                       QueryGuard& guard);
    /// Folds a finished (or failed) hardened run into the report and the
    /// metrics registry: hardened/degraded flags, fault counters.
    void record_faults(Report& report, const QueryGuard& guard);

    /// Runs one query's payload on a fresh simulated machine and fills the
    /// report around it.
    using QueryBody = std::function<void(net::Simulator&, const core::RunSpec&,
                                         const Prepared&, Report&)>;
    /// The scaffold every counting query shares: the spec with the query's
    /// overrides (and `algorithm`, when forced) and query-local per-rank
    /// KernelStats, prepare(), the guard-armed simulator (`arm` gates the
    /// hardened layer) running its ranks on `pool`, the typed
    /// OOM/fault/deadline failures, then record_faults and finalize. `body`
    /// fills the query's payload.
    Report run_query(Query kind, const QueryOptions& query,
                     std::optional<core::Algorithm> algorithm, bool arm,
                     util::WorkerPool* pool, const QueryBody& body);

    const graph::CsrGraph* graph_;
    Config config_;
    graph::Partition1D partition_;
    std::shared_ptr<obs::Observability> obs_;
    /// The session's deterministic fault oracle, parsed once from
    /// Config::fault_spec; disengaged = no injection (hardening may still be
    /// on via Config::harden).
    std::optional<fault::FaultInjector> injector_;
    /// Written only by the one build under preprocess_once_ (views_ and
    /// ledger_); read-only for every query after it.
    std::vector<graph::DistGraph> views_;
    std::once_flag preprocess_once_;
    core::PreprocessCosts ledger_;
    /// Immutable per-threshold hub indices (keyed by
    /// AlgorithmOptions::hub_threshold), filled on first use. Entries are
    /// never erased, so a handed-out pointer stays valid for the engine's
    /// lifetime.
    mutable util::Mutex hubs_mutex_;
    std::map<graph::Degree, core::HubIndices> hubs_ KATRIC_GUARDED_BY(hubs_mutex_);
    std::size_t preprocess_builds_ KATRIC_GUARDED_BY(hubs_mutex_) = 0;
    std::size_t build_passes_ = 1;
    std::atomic<std::size_t> queries_{0};
};

}  // namespace katric
