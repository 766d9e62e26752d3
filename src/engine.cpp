#include "engine.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <utility>

#include "stream/incremental.hpp"
#include "stream/incremental_lcc.hpp"
#include "util/assert.hpp"
#include "util/timer.hpp"
#include "util/worker_pool.hpp"

namespace katric {

namespace {

Config validated(Config config) {
    KATRIC_ASSERT_MSG(config.num_ranks >= 1, "Engine needs at least one rank");
    return config;
}

graph::Partition1D validated_partition(graph::Partition1D partition,
                                       const graph::CsrGraph& graph,
                                       const Config& config) {
    KATRIC_ASSERT_MSG(partition.num_ranks() == config.num_ranks,
                      "injected partition has " << partition.num_ranks()
                          << " ranks, Config::num_ranks is " << config.num_ranks);
    KATRIC_ASSERT_MSG(partition.num_vertices() == graph.num_vertices(),
                      "injected partition covers " << partition.num_vertices()
                          << " vertices, graph has " << graph.num_vertices());
    return partition;
}

/// Folds the machine's per-PE compute counters into a report's telemetry.
void accumulate_ops(Report& report, const net::Simulator& sim) {
    for (const auto& metrics : sim.rank_metrics()) {
        report.total_compute_ops += metrics.compute_ops;
        report.max_compute_ops = std::max(report.max_compute_ops, metrics.compute_ops);
    }
}

/// The pool a direct query runs its ranks on: the process-wide one, unless
/// the query feeds a caller's sink, which then sees one call at a time.
util::WorkerPool* direct_pool(const core::TriangleSink* caller_sink) {
    return caller_sink == nullptr ? &util::WorkerPool::shared() : nullptr;
}

}  // namespace

// --- Engine ------------------------------------------------------------

Engine::Engine(const graph::CsrGraph& graph, Config config)
    : graph_(&graph),
      config_(validated(std::move(config))),
      partition_(core::make_partition(graph, config_.run_spec())),
      obs_(obs::Observability::acquire(config_.metrics, config_.trace_out)),
      views_(graph::distribute(graph, partition_)) {
    if (!config_.fault_spec.empty()) {
        injector_.emplace(fault::FaultPlan::parse(config_.fault_spec));
    }
}

Engine::Engine(const graph::CsrGraph& graph, Config config, graph::Partition1D partition)
    : graph_(&graph),
      config_(validated(std::move(config))),
      partition_(validated_partition(std::move(partition), graph, config_)),
      obs_(obs::Observability::acquire(config_.metrics, config_.trace_out)),
      views_(graph::distribute(graph, partition_)) {
    if (!config_.fault_spec.empty()) {
        injector_.emplace(fault::FaultPlan::parse(config_.fault_spec));
    }
}

void Engine::arm_simulator(net::Simulator& sim, const QueryOptions& query,
                           QueryGuard& guard) {
    const double deadline = query.deadline_seconds.value_or(config_.deadline_seconds);
    const bool wants_cancel = deadline > 0.0 || query.cancel != nullptr;
    const bool wants_harden = hardening_enabled();
    const bool wants_timeout = config_.phase_timeout > 0.0;
    if (!wants_harden && !wants_cancel && !wants_timeout) {
        return;  // the zero-overhead path
    }
    if (deadline > 0.0) { guard.token.set_deadline_in(deadline); }
    if (query.cancel != nullptr) { guard.token.chain(query.cancel); }
    net::HardenOptions harden;
    // Deadline/cancel without --harden arms only the superstep boundary
    // check — no framing, no checksum cost on the payload path.
    harden.frame = wants_harden;
    if (wants_harden) {
        harden.injector = injector_ ? &*injector_ : nullptr;
        harden.stats = &guard.stats;
    }
    harden.cancel = wants_cancel ? &guard.token : nullptr;
    const auto policy = query.recovery.value_or(config_.recovery);
    harden.max_retries =
        policy == fault::RecoveryPolicy::kFailFast ? 0 : config_.max_retries;
    harden.phase_timeout = config_.phase_timeout;
    sim.harden(harden);
    guard.armed = true;
}

void Engine::record_faults(Report& report, const QueryGuard& guard) {
    if (!guard.armed) { return; }
    report.hardened = hardening_enabled();
    report.faults = guard.stats;
    if (obs_ && obs_->metrics_enabled()) {
        auto& registry = obs_->registry();
        registry.count("fault.frames_sent", guard.stats.frames_sent);
        if (const auto injected = guard.stats.injected_total(); injected > 0) {
            registry.count("fault.injected", injected);
        }
        if (guard.stats.corrupt_detected > 0) {
            registry.count("fault.corrupt_detected", guard.stats.corrupt_detected);
        }
        if (guard.stats.duplicates_suppressed > 0) {
            registry.count("fault.duplicates_suppressed",
                           guard.stats.duplicates_suppressed);
        }
        if (guard.stats.retransmits > 0) {
            registry.count("fault.retransmits", guard.stats.retransmits);
        }
        if (report.error.domain == Error::Domain::kNet) {
            registry.count("fault.query_failed");
        }
        if (report.degraded) { registry.count("fault.query_degraded"); }
    }
}

std::string Engine::metrics_summary() const { return obs_ ? obs_->summary() : ""; }

std::size_t Engine::preprocess_builds() const {
    const util::MutexLock lock(hubs_mutex_);
    return preprocess_builds_;
}

Engine::Prepared Engine::prepare(const core::RunSpec& spec) {
    std::call_once(preprocess_once_, [this] {
        // One throwaway, unhardened machine pays the build — ghost-degree
        // exchange, orientation, and the configured kernels' hub bitmaps —
        // and records the ledger every charged query replays. No query's
        // own machine ever builds, so no report depends on which query got
        // here first.
        WallTimer timer;
        net::Simulator sim(config_.num_ranks, config_.network);
        if (obs_) { sim.record_phase_details(true); }
        auto hubs = core::run_preprocessing(sim, views_, config_.options, &ledger_);
        {
            const util::MutexLock lock(hubs_mutex_);
            if (!hubs.per_rank.empty()) {
                hubs_.emplace(config_.options.hub_threshold, std::move(hubs));
            }
            ++preprocess_builds_;
        }
        // Recorded as its own query kind: with charge_preprocessing off no
        // query carries preprocessing spans of its own.
        if (obs_) { obs_->observe_query("warm_build", sim, timer.elapsed_seconds()); }
    });
    Prepared prepared;
    if (config_.charge_preprocessing) { prepared.replay = &ledger_; }
    if (core::wants_hub_indices(spec.algorithm, spec.options)) {
        const util::MutexLock lock(hubs_mutex_);
        auto [it, inserted] = hubs_.try_emplace(spec.options.hub_threshold);
        if (inserted) {
            // Host-side build for a hub threshold the first build did not
            // cover; a charged query replays its ops with the ledger.
            it->second = core::build_hub_indices(views_, spec.options);
            ++preprocess_builds_;
        }
        prepared.hubs = &it->second;
    }
    return prepared;
}

core::RunSpec Engine::query_spec(const QueryOptions& query) const {
    auto spec = config_.run_spec();
    if (query.algorithm) { spec.algorithm = *query.algorithm; }
    if (query.options) { spec.options = *query.options; }
    // The dispatch-mix sinks are wired per query (stack-local per-rank
    // KernelStats in run_query, merged on finalize) — never Config itself,
    // so flag round-trips and option equality stay pure, and concurrent
    // queries never share a recording sink.
    spec.options.kernel_stats = nullptr;
    return spec;
}

void Engine::finalize(Report& report, const net::Simulator& sim, double wall_seconds,
                      std::span<const obs::KernelStats> kernel_stats) {
    accumulate_ops(report, sim);
    report.phases = net::aggregate_phase_times(sim.phases());
    if (report.count.error != core::RunError::kNone) {
        report.error = make_error(report.count.error, report.algorithm);
    }
    if (obs_) {
        obs::KernelStats merged;
        for (const auto& rank_stats : kernel_stats) { merged.merge(rank_stats); }
        obs_->observe_query(query_name(report.query), sim, wall_seconds,
                            kernel_stats.empty() ? nullptr : &merged);
    }
    queries_.fetch_add(1, std::memory_order_relaxed);
}

Report Engine::run_query(Query kind, const QueryOptions& query,
                         std::optional<core::Algorithm> algorithm, bool arm,
                         util::WorkerPool* pool, const QueryBody& body) {
    WallTimer timer;
    auto spec = query_spec(query);
    if (algorithm) { spec.algorithm = *algorithm; }
    // Query-local dispatch-mix recording, one sink per rank (ranks may run
    // concurrently): merged into the session totals on finalize, so
    // concurrent queries never write one shared sink either.
    std::vector<obs::KernelStats> kernel_stats;
    if (obs_ && obs_->metrics_enabled()) {
        kernel_stats.resize(spec.num_ranks);
        spec.options.kernel_stats = kernel_stats.data();
    }
    Report report;
    report.query = kind;
    report.algorithm = spec.algorithm;
    report.reused_preprocessing = !config_.charge_preprocessing;
    const auto prepared = prepare(spec);
    // The guard is declared before the simulator: arm_simulator lends the
    // simulator the guard's stats/cancel pointers, so the borrower must be
    // destroyed first.
    QueryGuard guard;
    net::Simulator sim(spec.num_ranks, spec.network);
    sim.set_worker_pool(pool);
    if (obs_) { sim.record_phase_details(true); }
    if (arm) { arm_simulator(sim, query, guard); }
    try {
        body(sim, spec, prepared, report);
    } catch (const net::OomError&) {
        report.count.oom = true;
        core::fill_metrics(sim, report.count);
    } catch (const net::FaultError& e) {
        report.error = make_error(e.code(), e.what());
        core::fill_metrics(sim, report.count);
    } catch (const net::CancelledError&) {
        report.error = make_error(ServeError::kDeadline);
        core::fill_metrics(sim, report.count);
    }
    record_faults(report, guard);
    finalize(report, sim, timer.elapsed_seconds(), kernel_stats);
    return report;
}

Report Engine::count(const core::TriangleSink* sink, const QueryOptions& query) {
    return count_impl(sink, query, direct_pool(sink));
}

Report Engine::lcc(const QueryOptions& query) {
    return lcc_impl(query, direct_pool(nullptr));
}

Report Engine::enumerate(const core::TriangleSink* sink, const QueryOptions& query) {
    return enumerate_impl(sink, query, direct_pool(sink));
}

Report Engine::approx_count(const QueryOptions& query) {
    return approx_impl(query, /*arm=*/true, direct_pool(nullptr));
}

Report Engine::count_impl(const core::TriangleSink* sink, const QueryOptions& query,
                          util::WorkerPool* pool) {
    Report report = run_query(
        Query::kCount, query, std::nullopt, /*arm=*/true, pool,
        [&](net::Simulator& sim, const core::RunSpec& spec, const Prepared& prepared,
            Report& out) {
            out.count = core::dispatch_algorithm(sim, views_, spec, sink, prepared.replay,
                                                 prepared.hubs);
        });
    if (sink == nullptr && report.error.domain == Error::Domain::kNet
        && query.recovery.value_or(config_.recovery)
               == fault::RecoveryPolicy::kDegrade) {
        // Graceful degradation: the exact count could not be recovered, so
        // answer with the AMQ estimate — computed with injection off (the
        // faulty schedule already had its retries) — and say so explicitly.
        Report fallback = approx_impl(query, /*arm=*/false, pool);
        fallback.query = Query::kCount;
        fallback.degraded = true;
        fallback.hardened = report.hardened;
        fallback.faults = report.faults;  // what the failed exact attempt saw
        if (obs_ && obs_->metrics_enabled()) {
            obs_->registry().count("fault.query_degraded");
        }
        return fallback;
    }
    return report;
}

Report Engine::lcc_impl(const QueryOptions& query, util::WorkerPool* pool) {
    return run_query(
        Query::kLcc, query, std::nullopt, /*arm=*/true, pool,
        [&](net::Simulator& sim, const core::RunSpec& spec, const Prepared& prepared,
            Report& out) {
            auto result = core::compute_distributed_lcc(sim, views_, *graph_, spec,
                                                        prepared.replay, prepared.hubs);
            out.count = std::move(result.count);
            out.delta = std::move(result.delta);
            out.lcc = std::move(result.lcc);
            out.postprocess_time = result.postprocess_time;
        });
}

Report Engine::enumerate_impl(const core::TriangleSink* sink, const QueryOptions& query,
                              util::WorkerPool* pool) {
    // One bucket per finder rank: finders may run concurrently and each
    // writes only its own (the TriangleSink contract). A deque grows in
    // chunks, never holding a doubled copy of itself while it grows.
    struct alignas(64) Bucket {
        std::deque<core::Triangle> triangles;
        std::size_t found = 0;
    };
    std::vector<Bucket> buckets(config_.num_ranks);
    const core::TriangleSink collector = [&](core::Rank finder, core::VertexId v,
                                             core::VertexId u, core::VertexId w) {
        core::Triangle t{v, u, w};
        if (t.a > t.b) { std::swap(t.a, t.b); }
        if (t.b > t.c) { std::swap(t.b, t.c); }
        if (t.a > t.b) { std::swap(t.a, t.b); }
        KATRIC_ASSERT_MSG(t.a < t.b && t.b < t.c,
                          "degenerate triangle " << v << ',' << u << ',' << w);
        Bucket& bucket = buckets[finder];
        if (sink != nullptr) {
            (*sink)(finder, v, u, w);
        } else {
            bucket.triangles.push_back(t);
        }
        ++bucket.found;
    };
    Report report = count_impl(&collector, query, pool);
    report.query = Query::kEnumerate;
    // A failed run returns no triangles: what it found is no answer.
    if (sink == nullptr && report.ok()) {
        std::size_t total = 0;
        for (const auto& bucket : buckets) { total += bucket.triangles.size(); }
        report.triangles.reserve(total);
        for (auto& bucket : buckets) {
            report.triangles.insert(report.triangles.end(), bucket.triangles.begin(),
                                    bucket.triangles.end());
            std::deque<core::Triangle>().swap(bucket.triangles);  // free as we go
        }
        std::sort(report.triangles.begin(), report.triangles.end());
        KATRIC_ASSERT_MSG(std::adjacent_find(report.triangles.begin(),
                                             report.triangles.end())
                              == report.triangles.end(),
                          "a triangle was enumerated more than once — the "
                          "exactly-once invariant is broken");
        KATRIC_ASSERT(report.triangles.size() == report.count.triangles);
    }
    report.found_per_rank.reserve(buckets.size());
    for (const auto& bucket : buckets) { report.found_per_rank.push_back(bucket.found); }
    return report;
}

Report Engine::approx_impl(const QueryOptions& query, bool arm, util::WorkerPool* pool) {
    const auto& amq = query.amq ? *query.amq : config_.amq;
    // The AMQ query always runs the CETRIC-AMQ pipeline (exact CETRIC local
    // phase + Bloom-filter global phase), whatever Config::algorithm says —
    // label the report and prepare the hub indices accordingly.
    return run_query(
        Query::kApprox, query, core::Algorithm::kCetric, arm, pool,
        [&](net::Simulator& sim, const core::RunSpec& spec, const Prepared& prepared,
            Report& out) {
            auto result = core::count_triangles_cetric_amq(sim, views_, spec, amq,
                                                           prepared.replay, prepared.hubs);
            out.count = std::move(result.metrics);
            out.estimated_triangles = result.estimated_triangles;
            out.exact_type12 = result.exact_type12;
            out.estimated_type3 = result.estimated_type3;
        });
}

StreamSession Engine::open_stream() {
    core::CountResult initial;
    std::vector<std::uint64_t> initial_delta;
    if (config_.maintain_lcc) {
        // The LCC-enabled static pass supplies both the initial count and
        // the per-vertex Δ seed in one run over the shared views.
        auto seeded = lcc();
        initial = std::move(seeded.count);
        initial_delta = std::move(seeded.delta);
        KATRIC_ASSERT_MSG(initial.error == core::RunError::kNone,
                          core::run_error_message(initial.error, config_.algorithm));
    } else {
        auto seeded = count();
        initial = std::move(seeded.count);
    }
    KATRIC_ASSERT_MSG(!initial.oom, "initial static count ran out of memory");
    return StreamSession(*graph_, partition_, config_, std::move(initial),
                         std::move(initial_delta), obs_);
}

Report Engine::stream(const std::vector<stream::EdgeBatch>& batches,
                      const stream::BatchObserver& observer) {
    auto session = open_stream();
    for (const auto& batch : batches) {
        const auto& stats = session.ingest(batch);
        if (observer) { observer(stats); }
    }
    return session.report();
}

// --- StreamSession ------------------------------------------------------

StreamSession::StreamSession(const graph::CsrGraph& graph,
                             const graph::Partition1D& partition, Config config,
                             core::CountResult initial,
                             std::vector<std::uint64_t> initial_delta,
                             std::shared_ptr<obs::Observability> obs)
    : config_(std::move(config)),
      obs_(std::move(obs)),
      initial_(std::move(initial)),
      sim_(std::make_unique<net::Simulator>(config_.num_ranks, config_.network)),
      views_(std::make_unique<std::vector<stream::DynamicDistGraph>>(
          stream::distribute_dynamic(graph, partition))),
      counter_(std::make_unique<stream::IncrementalCounter>(
          *sim_, *views_, config_.options, config_.stream_indirect,
          initial_.triangles)) {
    if (obs_) { sim_->record_phase_details(true); }
    if (config_.harden || !config_.fault_spec.empty()) {
        // Streaming sessions mutate the dynamic views mid-batch, so an
        // injected fault could not abort cleanly — they get the hardened
        // layer's framing/verification/dedup, but never injection (see
        // docs/robustness.md). On a reliable simulated wire this is
        // overhead-only and cannot throw.
        sim_->harden(net::HardenOptions{});
    }
    if (config_.maintain_lcc) {
        lcc_ = std::make_unique<stream::IncrementalLcc>(
            *sim_, *views_, config_.options, config_.stream_indirect, initial_delta);
        lcc_->attach(*counter_);
    }
    // Batches run their ranks on every core; attached only now, so the
    // session's one-time setup supersteps stay on the calling thread.
    sim_->set_worker_pool(&util::WorkerPool::shared());
}

StreamSession::~StreamSession() {
    // The session's simulator accumulates supersteps across every ingested
    // batch; its timeline goes to the trace once, when the session ends.
    // A moved-from session holds no simulator and records nothing.
    if (obs_ && sim_ && obs_->tracing_enabled()) {
        std::ostringstream label;
        label << "stream(" << batches_.size() << " batches)";
        obs_->tracer().record_query(label.str(), *sim_);
    }
}

stream::BatchStats StreamSession::ingest(const stream::EdgeBatch& batch) {
    WallTimer timer;
    const double sim_before = sim_->time();
    auto stats = counter_->apply_batch(batch);
    if (!stats.error.ok()) {
        // Rejected atomically before any superstep: record it (the report's
        // batch log shows the typed error) but run no LCC flush and charge
        // nothing.
        batches_.push_back(stats);
        if (obs_ && obs_->metrics_enabled()) {
            obs_->registry().count("stream.batch_rejected");
        }
        return stats;
    }
    if (lcc_) { stats.lcc_seconds = lcc_->finish_batch(); }
    batches_.push_back(stats);
    if (obs_ && obs_->metrics_enabled()) {
        auto& registry = obs_->registry();
        registry.count("query.stream_ingest");
        registry.observe_latency("query.stream_ingest.latency_seconds",
                                 timer.elapsed_seconds());
        registry.observe_latency("query.stream_ingest.sim_seconds",
                                 sim_->time() - sim_before);
        registry.observe_size("stream.batch_edges", batch.events.size());
    }
    return stats;
}

std::uint64_t StreamSession::triangles() const noexcept { return counter_->triangles(); }

std::vector<std::uint64_t> StreamSession::delta() const {
    KATRIC_ASSERT_MSG(lcc_ != nullptr, "session does not maintain LCC");
    return lcc_->delta();
}

std::vector<double> StreamSession::lcc() const {
    KATRIC_ASSERT_MSG(lcc_ != nullptr, "session does not maintain LCC");
    return lcc_->lcc();
}

graph::CsrGraph StreamSession::materialize_global() const {
    return stream::materialize_global(*views_);
}

Report StreamSession::report() const {
    Report report;
    report.query = Query::kStream;
    report.algorithm = config_.algorithm;
    report.reused_preprocessing = !config_.charge_preprocessing;
    report.count.triangles = counter_->triangles();
    report.initial = initial_;
    report.batches = batches_;
    report.stream_seconds = sim_->time();
    report.phases = net::aggregate_phase_times(sim_->phases());
    accumulate_ops(report, *sim_);
    if (lcc_) {
        report.delta = lcc_->delta();
        report.lcc = lcc_->lcc();
    }
    return report;
}

}  // namespace katric
