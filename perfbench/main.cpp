// katric end-to-end benchmark.
//
// One process runs one workload against the public library surface:
//
//   rmat-serve  warm hardened Engine served by nproc workers, closed loop
//   rgg-query   cold Engine, one client, one query at a time
//   rhg-stream  streaming session ingesting a churn stream in batches
//
// Every answer is checked outside the timed region: the reference pass runs
// each distinct operation once, sequentially, and compares it with the
// sequential oracle (seq::count_edge_iterator / seq::compute_lcc_oracle);
// every timed operation must then equal its reference bit for bit.
//
// --trace 0 prints the end-to-end metrics (library metrics off).
// --trace 1 runs the workload twice, untraced and then with Config::metrics
// and phase details on plus the benchmark's own spans, and prints the
// per-layer metrics. The last stdout line is one JSON object; README.md in
// this directory lists every metric and what it should move.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "katric.hpp"
#include "seq/intersection_simd.hpp"
#include "spans.hpp"
#include "util/assert.hpp"
#include "util/cli.hpp"

namespace perfbench {
namespace {

using namespace katric;

// --- metric tables ----------------------------------------------------------

struct MetricDef {
    const char* name;
    const char* unit;
};

// Names and units must match BENCHMARK.json (selftest.py checks it).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"latency_p90_s", "s"},
    {"throughput_ops_s", "1/s"},
    {"sim_time_s", "s"},
    {"sim_bottleneck_words", "words"},
    {"sim_bottleneck_messages", "count"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.generate_s", "s"},
    {"core.partition_s", "s"},
    {"graph.distribute_s", "s"},
    {"engine.warm_build_s", "s"},
    {"stream.open_s", "s"},
    {"engine.query_s.count", "s"},
    {"engine.query_s.lcc", "s"},
    {"engine.query_s.enumerate", "s"},
    {"engine.query_s.approx", "s"},
    {"serve.queue_wait_s", "s"},
    {"serve.run_s", "s"},
    {"serve.rejected", "count"},
    {"serve.shed_deadline", "count"},
    {"core.sim_preprocessing_s", "s"},
    {"core.sim_local_s", "s"},
    {"core.sim_contraction_s", "s"},
    {"core.sim_global_s", "s"},
    {"core.sim_reduce_s", "s"},
    {"core.local_triangle_share", "fraction"},
    {"core.approx_rel_error", "fraction"},
    {"graph.cut_edge_share", "fraction"},
    {"seq.compute_ops_total", "ops"},
    {"seq.compute_ops_max", "ops"},
    {"seq.hub_hit_rate", "fraction"},
    {"seq.dispatch_share.merge", "fraction"},
    {"seq.dispatch_share.binary", "fraction"},
    {"seq.dispatch_share.hybrid", "fraction"},
    {"seq.dispatch_share.galloping", "fraction"},
    {"seq.dispatch_share.simd_merge", "fraction"},
    {"seq.dispatch_share.bitmap_hub_hub", "fraction"},
    {"seq.dispatch_share.bitmap_probe", "fraction"},
    {"seq.oracle_s", "s"},
    {"net.messages_total", "count"},
    {"net.words_total", "words"},
    {"net.peak_buffer_words_max", "words"},
    {"net.phase_words.preprocessing", "words"},
    {"net.phase_words.global", "words"},
    {"net.phase_words.reduce", "words"},
    {"net.phase_words.postprocess", "words"},
    {"net.phase_words.stream", "words"},
    {"fault.frames_sent", "count"},
    {"fault.retransmits", "count"},
    {"fault.corrupt_detected", "count"},
    {"stream.ingest_s", "s"},
    {"stream.batch_sim_s", "s"},
    {"stream.batch_words", "words"},
    {"stream.batch_messages", "count"},
    {"stream.effective_update_share", "fraction"},
    {"obs.overhead_frac", "fraction"},
    {"failed_frac", "fraction"},
};

/// Name → value for one metric table; every name starts at 0 so the output
/// always carries the whole table.
class Metrics {
public:
    template <std::size_t N>
    explicit Metrics(const MetricDef (&defs)[N]) : defs_(defs, defs + N) {
        for (const auto& def : defs_) { values_[def.name] = 0.0; }
    }

    void set(const std::string& name, double value) {
        const auto it = values_.find(name);
        KATRIC_ASSERT_MSG(it != values_.end(), "unknown metric " << name);
        it->second = std::isfinite(value) ? value : 0.0;
    }

    [[nodiscard]] std::string to_json() const {
        std::ostringstream out;
        out.precision(17);
        out << '{';
        for (std::size_t i = 0; i < defs_.size(); ++i) {
            out << (i ? ", " : "") << '"' << defs_[i].name << "\": {\"value\": "
                << values_.at(defs_[i].name) << ", \"unit\": \"" << defs_[i].unit
                << "\"}";
        }
        out << '}';
        return out.str();
    }

private:
    std::vector<MetricDef> defs_;
    std::map<std::string, double> values_;
};

// --- small helpers ----------------------------------------------------------

std::uint64_t mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/// Seed-determined Fisher–Yates shuffle (portable, unlike std::shuffle).
template <class T>
void shuffle(std::vector<T>& items, std::uint64_t seed) {
    for (std::size_t i = items.size(); i > 1; --i) {
        seed = mix64(seed);
        std::swap(items[i - 1], items[seed % i]);
    }
}

double median(std::vector<double> values) {
    if (values.empty()) { return 0.0; }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q) {
    if (values.empty()) { return 0.0; }
    std::sort(values.begin(), values.end());
    const auto rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Attempted / failed bookkeeping. A wrong exact answer also marks the run
/// incorrect; the first few failure reasons go to stderr.
struct Tally {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool wrong = false;

    /// Records one checked operation; `problem` empty means it passed.
    void check(const std::string& problem, bool wrong_answer = true) {
        ++attempted;
        if (problem.empty()) { return; }
        ++failed;
        wrong = wrong || wrong_answer;
        if (failed <= 5) { std::cerr << "perfbench: FAILED: " << problem << '\n'; }
    }
};

// --- parameters -------------------------------------------------------------

struct Sizes {
    std::uint32_t rmat_scale = 15;               // n = 32768, 8n edge slots
    graph::VertexId rgg_n = graph::VertexId{1} << 16;
    graph::VertexId rhg_n = graph::VertexId{1} << 16;
    std::size_t stream_batches = 128;            // batches in the fixed op list
    std::size_t batch_events = 1024;
    std::size_t builds = 5;                      // set-up repetitions per run
    std::size_t min_ops = 100;                   // p90 needs 10 samples beyond it
};

Sizes tiny_sizes() {
    Sizes s;
    s.rmat_scale = 10;
    s.rgg_n = graph::VertexId{1} << 11;
    s.rhg_n = graph::VertexId{1} << 11;
    s.stream_batches = 8;
    s.batch_events = 64;
    s.builds = 2;
    s.min_ops = 20;
    return s;
}

struct Params {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool corrupt_oracle = false;
    std::string spans_out;
    Sizes sizes;
    unsigned threads = 1;  // nproc: serve workers and requests in flight
};

constexpr int kRanks = 16;
/// approx_count must land within this relative error of the exact count.
constexpr double kApproxTolerance = 0.10;

// --- graph, oracle and checks -----------------------------------------------

struct Oracle {
    std::uint64_t triangles = 0;
    seq::LccOracle lcc;  // filled only when a workload checks LCC vectors
};

Oracle make_oracle(const graph::CsrGraph& graph, bool with_lcc, bool corrupt,
                   SpanLog& spans, std::uint64_t op) {
    Oracle oracle;
    {
        const SpanScope span(spans, "seq.oracle", op);
        oracle.triangles = seq::count_edge_iterator(graph).triangles;
    }
    if (with_lcc) { oracle.lcc = seq::compute_lcc_oracle(graph); }
    if (corrupt) {
        // Self-test hook: a deliberately wrong oracle must fail the run.
        oracle.triangles += 1;
        if (!oracle.lcc.delta.empty()) { oracle.lcc.delta[0] += 1; }
    }
    return oracle;
}

double cut_edge_share(const graph::CsrGraph& graph, const graph::Partition1D& partition) {
    std::uint64_t cut = 0;
    for (graph::VertexId v = 0; v < graph.num_vertices(); ++v) {
        const auto rank = partition.rank_of(v);
        for (const auto u : graph.neighbors(v)) {
            if (u > v && partition.rank_of(u) != rank) { ++cut; }
        }
    }
    return ratio(static_cast<double>(cut), static_cast<double>(graph.num_edges()));
}

/// Nothing is injected, so a hardened run must neither retransmit a frame nor
/// detect a corrupt one.
std::string check_fault_free(const Report& report) {
    const auto& faults = report.faults;
    if (faults.retransmits == 0 && faults.corrupt_detected == 0) { return {}; }
    return query_name(report.query) + ": " + std::to_string(faults.retransmits)
           + " retransmits and " + std::to_string(faults.corrupt_detected)
           + " corrupt frames with nothing injected";
}

std::string check_count(const Report& report, const Oracle& oracle) {
    if (!report.ok()) {
        return query_name(report.query) + " error: " + report.error.message;
    }
    if (auto problem = check_fault_free(report); !problem.empty()) { return problem; }
    if (report.count.triangles != oracle.triangles) {
        return query_name(report.query) + " " + core::algorithm_name(report.algorithm)
               + " counted " + std::to_string(report.count.triangles) + ", oracle "
               + std::to_string(oracle.triangles);
    }
    return {};
}

std::string check_lcc(const Report& report, const Oracle& oracle) {
    if (auto problem = check_count(report, oracle); !problem.empty()) { return problem; }
    if (report.delta != oracle.lcc.delta) {
        return "lcc: per-vertex triangle counts differ";
    }
    if (report.lcc.size() != oracle.lcc.lcc.size()) { return "lcc: wrong vector length"; }
    for (std::size_t v = 0; v < report.lcc.size(); ++v) {
        if (std::abs(report.lcc[v] - oracle.lcc.lcc[v]) > 1e-12) {
            return "lcc: coefficient differs at vertex " + std::to_string(v);
        }
    }
    return {};
}

/// A sorted, duplicate-free list of oracle-count many real triangles is the
/// full triangle set.
std::string check_enumerate(const Report& report, const Oracle& oracle,
                            const graph::CsrGraph& graph) {
    if (auto problem = check_count(report, oracle); !problem.empty()) { return problem; }
    const auto& list = report.triangles;
    if (list.size() != oracle.triangles) {
        return "enumerate: list size differs from oracle";
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
        const auto& t = list[i];
        if (!(t.a < t.b && t.b < t.c) || (i > 0 && !(list[i - 1] < t))) {
            return "enumerate: list not canonical and sorted";
        }
        if (!graph.has_edge(t.a, t.b) || !graph.has_edge(t.b, t.c)
            || !graph.has_edge(t.a, t.c)) {
            return "enumerate: listed triple is not a triangle";
        }
    }
    return {};
}

std::string check_approx(const Report& report, const Oracle& oracle) {
    if (!report.ok()) { return "approx error: " + report.error.message; }
    if (auto problem = check_fault_free(report); !problem.empty()) { return problem; }
    const double error = ratio(std::abs(report.estimated_triangles
                                        - static_cast<double>(oracle.triangles)),
                               static_cast<double>(oracle.triangles));
    if (error > kApproxTolerance) {
        return "approx: relative error " + std::to_string(error) + " above tolerance";
    }
    return {};
}

bool same_count(const core::CountResult& a, const core::CountResult& b) {
    return a.triangles == b.triangles && a.oom == b.oom && a.error == b.error
           && a.total_time == b.total_time && a.preprocessing_time == b.preprocessing_time
           && a.local_time == b.local_time && a.contraction_time == b.contraction_time
           && a.global_time == b.global_time && a.reduce_time == b.reduce_time
           && a.max_messages_sent == b.max_messages_sent
           && a.max_words_sent == b.max_words_sent
           && a.total_messages_sent == b.total_messages_sent
           && a.total_words_sent == b.total_words_sent
           && a.max_peak_buffer_words == b.max_peak_buffer_words
           && a.local_phase_triangles == b.local_phase_triangles
           && a.global_phase_triangles == b.global_phase_triangles;
}

/// Bit-identity of a timed (or served) report with its sequential reference.
std::string check_same(const Report& got, const Report& ref) {
    if (!got.ok()) { return query_name(got.query) + " error: " + got.error.message; }
    bool same = got.query == ref.query && got.algorithm == ref.algorithm
                && same_count(got.count, ref.count)
                && got.total_compute_ops == ref.total_compute_ops
                && got.max_compute_ops == ref.max_compute_ops && got.faults == ref.faults
                && got.delta == ref.delta && got.lcc == ref.lcc
                && got.triangles == ref.triangles
                && got.estimated_triangles == ref.estimated_triangles
                && got.postprocess_time == ref.postprocess_time
                && got.phases.size() == ref.phases.size();
    for (std::size_t i = 0; same && i < got.phases.size(); ++i) {
        const auto& a = got.phases[i];
        const auto& b = ref.phases[i];
        same = a.name == b.name && a.seconds == b.seconds && a.supersteps == b.supersteps
               && a.messages_sent == b.messages_sent && a.words_sent == b.words_sent;
    }
    return same ? std::string{}
                : query_name(got.query) + " " + core::algorithm_name(got.algorithm)
                      + " differs from its sequential reference";
}

// --- simulated metrics over the fixed operation list ------------------------

/// Means per operation of the simulated (deterministic) counters.
struct SimTotals {
    std::size_t ops = 0;
    double time = 0, max_words = 0, max_messages = 0;
    double preprocessing = 0, local = 0, contraction = 0, global = 0, reduce = 0;
    double words = 0, messages = 0, peak_buffer = 0, ops_total = 0, ops_max = 0;
    double local_triangles = 0, triangles = 0;
    double frames = 0, retransmits = 0, corrupt = 0;
    std::map<std::string, double> phase_words;

    void add(const Report& report) {
        const auto& c = report.count;
        ++ops;
        double seconds = 0;
        for (const auto& phase : report.phases) {
            seconds += phase.seconds;
            phase_words[phase.name] += static_cast<double>(phase.words_sent);
        }
        time += seconds;
        max_words += static_cast<double>(c.max_words_sent);
        max_messages += static_cast<double>(c.max_messages_sent);
        preprocessing += c.preprocessing_time;
        local += c.local_time;
        contraction += c.contraction_time;
        global += c.global_time;
        reduce += c.reduce_time;
        words += static_cast<double>(c.total_words_sent);
        messages += static_cast<double>(c.total_messages_sent);
        peak_buffer = std::max(peak_buffer, static_cast<double>(c.max_peak_buffer_words));
        ops_total += static_cast<double>(report.total_compute_ops);
        ops_max += static_cast<double>(report.max_compute_ops);
        if (report.query != Query::kApprox) {
            local_triangles += static_cast<double>(c.local_phase_triangles);
            triangles += static_cast<double>(c.triangles);
        }
        frames += static_cast<double>(report.faults.frames_sent);
        retransmits += static_cast<double>(report.faults.retransmits);
        corrupt += static_cast<double>(report.faults.corrupt_detected);
    }

    [[nodiscard]] double mean(double total) const {
        return ratio(total, static_cast<double>(ops));
    }

    void end_to_end(Metrics& m) const {
        m.set("sim_time_s", mean(time));
        m.set("sim_bottleneck_words", mean(max_words));
        m.set("sim_bottleneck_messages", mean(max_messages));
    }

    void per_layer(Metrics& m) const {
        m.set("core.sim_preprocessing_s", mean(preprocessing));
        m.set("core.sim_local_s", mean(local));
        m.set("core.sim_contraction_s", mean(contraction));
        m.set("core.sim_global_s", mean(global));
        m.set("core.sim_reduce_s", mean(reduce));
        m.set("core.local_triangle_share", ratio(local_triangles, triangles));
        m.set("seq.compute_ops_total", mean(ops_total));
        m.set("seq.compute_ops_max", mean(ops_max));
        m.set("net.messages_total", mean(messages));
        m.set("net.words_total", mean(words));
        m.set("net.peak_buffer_words_max", peak_buffer);
        for (const auto* phase :
             {"preprocessing", "global", "reduce", "postprocess", "stream"}) {
            const auto it = phase_words.find(phase);
            m.set(std::string("net.phase_words.") + phase,
                  it == phase_words.end() ? 0.0 : mean(it->second));
        }
        m.set("fault.frames_sent", mean(frames));
        m.set("fault.retransmits", mean(retransmits));
        m.set("fault.corrupt_detected", mean(corrupt));
    }
};

void kernel_metrics(const Engine& engine, Metrics& m) {
    const auto& obs = engine.observability();
    if (!obs) { return; }
    const auto& stats = obs->kernel_stats();
    m.set("seq.hub_hit_rate", stats.hub_hit_rate());
    for (std::size_t k = 0; k < obs::kNumKernelChoices; ++k) {
        const auto choice = static_cast<obs::KernelChoice>(k);
        m.set("seq.dispatch_share." + obs::kernel_choice_name(choice),
              ratio(static_cast<double>(stats.total(choice)),
                    static_cast<double>(stats.total())));
    }
}

/// Sum and count of the registry's run-latency samples for these kinds.
std::pair<double, std::size_t> registry_latency(const Engine& engine,
                                                const std::vector<std::string>& kinds) {
    double sum = 0;
    std::size_t count = 0;
    if (const auto& obs = engine.observability()) {
        for (const auto& kind : kinds) {
            const auto* s = obs->registry().summary("query." + kind + ".latency_seconds");
            if (s == nullptr) { continue; }
            sum += s->mean() * static_cast<double>(s->count());
            count += s->count();
        }
    }
    return {sum, count};
}

// --- set-up -----------------------------------------------------------------

/// Everything a workload builds before its first operation. The graph is
/// heap-held because the Engine keeps a pointer to it.
struct Built {
    std::unique_ptr<graph::CsrGraph> graph;
    graph::Partition1D partition;
    std::unique_ptr<Engine> engine;
    std::optional<StreamSession> stream;
};

using Generator = std::function<graph::CsrGraph()>;

/// Builds `count` times (the last build is kept) and returns the set-up
/// seconds of each: generate → partition → Engine (distribute + warm build)
/// → open_stream when asked.
std::vector<double> build_repeatedly(std::size_t count, const Generator& generate,
                                     const Config& config, bool open_stream,
                                     SpanLog& spans, std::uint64_t& op, Built& out) {
    std::vector<double> seconds;
    for (std::size_t i = 0; i < count; ++i) {
        out = Built{};  // release the previous build first: peak memory stays one build
        const std::uint64_t id = ++op;
        const double start = now_s();
        const auto setup = spans.open("setup", id);
        {
            const SpanScope span(spans, "gen.generate", id, setup);
            out.graph = std::make_unique<graph::CsrGraph>(generate());
        }
        {
            const SpanScope span(spans, "core.partition", id, setup);
            out.partition = core::make_partition(*out.graph, config.run_spec());
        }
        {
            const SpanScope span(spans, "engine.construct", id, setup);
            out.engine = std::make_unique<Engine>(*out.graph, config, out.partition);
        }
        if (open_stream) {
            const SpanScope span(spans, "stream.open", id, setup);
            out.stream.emplace(out.engine->open_stream());
        }
        spans.close(setup);
        seconds.push_back(now_s() - start);
    }
    return seconds;
}

/// The traced pass's per-layer metrics every workload shares: set-up
/// layers, per-kind sequential query medians, the oracle and the kernel mix.
/// graph::distribute is timed on its own here because Engine construction
/// runs it internally.
void common_layers(const Built& built, SpanLog& spans, std::uint64_t& op,
                   std::size_t reps, Metrics& m) {
    for (std::size_t i = 0; i < reps; ++i) {
        const SpanScope span(spans, "graph.distribute", ++op);
        const auto views = graph::distribute(*built.graph, built.partition);
    }
    for (const auto* kind : {"count", "lcc", "enumerate", "approx"}) {
        m.set(std::string("engine.query_s.") + kind,
              median(spans.durations(std::string("engine.query.") + kind)));
    }
    m.set("seq.oracle_s", median(spans.durations("seq.oracle")));
    kernel_metrics(*built.engine, m);
    m.set("gen.generate_s", median(spans.durations("gen.generate")));
    m.set("core.partition_s", median(spans.durations("core.partition")));
    m.set("graph.distribute_s", median(spans.durations("graph.distribute")));
    const auto [warm_sum, warm_builds] = registry_latency(*built.engine, {"warm_build"});
    m.set("engine.warm_build_s", ratio(warm_sum, static_cast<double>(warm_builds)));
    m.set("stream.open_s", median(spans.durations("stream.open")));
    m.set("graph.cut_edge_share", cut_edge_share(*built.graph, built.partition));
}

void print_input(const Params& params, std::uint64_t graph_seed, const Built& built) {
    const auto& g = *built.graph;
    const std::size_t csr_bytes = g.offsets().size() * sizeof(graph::EdgeId)
                                  + g.targets().size() * sizeof(graph::VertexId);
    std::cout << "# input: workload=" << params.workload << " seed=" << params.seed
              << " graph_seed=" << graph_seed << " n=" << g.num_vertices()
              << " m=" << g.num_edges() << " csr_bytes=" << csr_bytes
              << " cut_edge_share=" << cut_edge_share(g, built.partition)
              << " ranks=" << kRanks << " network=supermuc\n";
}

/// One measured pass: set-up samples, per-operation latencies and the
/// throughput window.
struct Pass {
    std::vector<double> setup;
    std::vector<double> latencies;
    std::size_t window_ops = 0;
    double window_seconds = 0;
    [[nodiscard]] double throughput() const {
        return ratio(static_cast<double>(window_ops), window_seconds);
    }
};

struct Outcome {
    Metrics end_to_end{kEndToEnd};
    Metrics per_layer{kPerLayer};
    Tally tally;
};

/// What a workload pass runs with; `traced` passes also fill per-layer metrics.
struct PassContext {
    const Params& params;
    bool traced;
    double seconds;
    std::size_t builds;
    SpanLog& spans;
    Outcome& out;
    std::uint64_t op = 0;
};

// --- rmat-serve -------------------------------------------------------------

/// R-MAT: low locality, skewed degrees; most triangles are found in the
/// global phase. One warm hardened Engine serves nproc workers; a single
/// client thread keeps nproc requests in flight (closed loop).
Pass rmat_serve(PassContext& ctx) {
    const auto& params = ctx.params;
    auto config = Config::preset("hardened-serve");
    config.num_ranks = kRanks;
    config.metrics = ctx.traced;
    config.serve_threads = static_cast<int>(params.threads);

    const std::uint64_t graph_seed = mix64(params.seed ^ 0x726d6174);
    const auto scale = params.sizes.rmat_scale;
    const Generator generate = [&] {
        return gen::generate_rmat(scale, graph::EdgeId{8} << scale, graph_seed);
    };
    Pass pass;
    Built built;
    pass.setup =
        build_repeatedly(ctx.builds, generate, config, false, ctx.spans, ctx.op, built);
    auto& engine = *built.engine;
    const auto oracle =
        make_oracle(*built.graph, true, params.corrupt_oracle, ctx.spans, ++ctx.op);
    if (!ctx.traced) { print_input(params, graph_seed, built); }

    // The distinct requests: counts with each of DITRIC/DITRIC2/CETRIC/
    // CETRIC2, lcc and approx_count.
    std::vector<ServeRequest> distinct;
    for (const auto algorithm : {core::Algorithm::kDitric, core::Algorithm::kDitric2,
                                 core::Algorithm::kCetric, core::Algorithm::kCetric2}) {
        ServeRequest request;
        request.options.algorithm = algorithm;
        distinct.push_back(request);
    }
    const std::size_t lcc = distinct.size();
    distinct.push_back(ServeRequest{Query::kLcc, {}, 0, 0.0});
    const std::size_t approx = distinct.size();
    distinct.push_back(ServeRequest{Query::kApprox, {}, 0, 0.0});
    // The operation list (indices into `distinct`): counts, lcc and approx
    // 6:1:1 in a seed-shuffled order. approx_count is the slowest kind; at
    // 12.5% of the mix the p90 falls inside its latency group instead of on
    // the edge between two kinds, as it would at 10%.
    std::vector<std::size_t> order;
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < lcc; ++i) { order.push_back(i); }
    }
    for (int rep = 0; rep < 2; ++rep) {
        order.push_back(lcc);
        order.push_back(approx);
    }
    shuffle(order, mix64(params.seed ^ 0x6f70730a));

    const auto run_sequential = [&](const ServeRequest& request) {
        switch (request.query) {
            case Query::kLcc: return engine.lcc(request.options);
            case Query::kApprox: return engine.approx_count(request.options);
            default: return engine.count(request.options);
        }
    };

    // Reference pass: each distinct request once, sequentially, against the
    // oracle. The traced pass repeats it to take per-kind host medians.
    std::vector<Report> refs;
    const std::size_t ref_passes = ctx.traced ? 3 : 1;
    for (std::size_t rep = 0; rep < ref_passes; ++rep) {
        for (std::size_t i = 0; i < distinct.size(); ++i) {
            const auto& request = distinct[i];
            Report report;
            {
                const auto name = "engine.query." + query_name(request.query);
                const SpanScope span(ctx.spans, name, ++ctx.op);
                report = run_sequential(request);
            }
            if (rep > 0) {
                ctx.out.tally.check(check_same(report, refs[i]));
            } else if (i == lcc) {
                ctx.out.tally.check(check_lcc(report, oracle));
            } else if (i == approx) {
                ctx.out.tally.check(check_approx(report, oracle));
            } else {
                ctx.out.tally.check(check_count(report, oracle));
            }
            if (rep == 0) { refs.push_back(std::move(report)); }
        }
    }
    ctx.out.per_layer.set("core.approx_rel_error",
                          ratio(std::abs(refs[approx].estimated_triangles
                                         - static_cast<double>(oracle.triangles)),
                                static_cast<double>(oracle.triangles)));
    SimTotals sim;
    for (const auto i : order) { sim.add(refs[i]); }

    auto session = engine.serve(ServeOptions{static_cast<int>(params.threads), 0});
    const std::size_t in_flight = params.threads;

    struct Flight {
        std::future<Report> future;
        std::size_t index;
        double submitted;
    };
    // Closed loop: one request per free slot; `timed` false is the warm-up.
    const auto serve_loop = [&](bool timed, std::size_t total_min, double seconds) {
        std::deque<Flight> flights;
        std::size_t next = 0;
        std::size_t done = 0;
        const double start = now_s();
        const double deadline = start + seconds;
        double stop = 0;
        bool submitting = true;
        const auto submit = [&] {
            const std::size_t index = order[next++ % order.size()];
            flights.push_back(Flight{{}, index, now_s()});
            flights.back().future = session.submit(distinct[index]);
        };
        for (std::size_t i = 0; i < in_flight; ++i) { submit(); }
        while (!flights.empty()) {
            auto it = std::find_if(flights.begin(), flights.end(), [](const Flight& f) {
                return f.future.wait_for(std::chrono::seconds(0))
                       == std::future_status::ready;
            });
            if (it == flights.end()) {
                flights.front().future.wait_for(std::chrono::microseconds(200));
                continue;
            }
            const double finished = now_s();
            const Report report = it->future.get();
            const std::size_t index = it->index;
            const double submitted = it->submitted;
            flights.erase(it);
            ++done;
            if (timed) {
                pass.latencies.push_back(finished - submitted);
                ctx.spans.add("serve.request", submitted, finished, ++ctx.op);
                if (submitting) { ++pass.window_ops; }
            }
            ctx.out.tally.check(check_same(report, refs[index]),
                                report.error.domain != Error::Domain::kServe);
            if (submitting && finished >= deadline && done >= total_min) {
                submitting = false;
                stop = finished;
            }
            if (submitting) { submit(); }
        }
        if (timed) { pass.window_seconds = stop - start; }
    };
    serve_loop(false, in_flight, 0.0);
    // Quiescent between the loops: the registry holds the sequential and
    // warm-up samples, which the served-run mean below leaves out.
    const std::vector<std::string> kinds = {"count", "lcc", "approx"};
    const auto before = registry_latency(engine, kinds);
    serve_loop(true, params.sizes.min_ops, ctx.seconds);
    session.drain();

    if (ctx.traced) {
        auto& m = ctx.out.per_layer;
        const auto stats = session.stats();
        m.set("serve.rejected", static_cast<double>(stats.rejected));
        m.set("serve.shed_deadline", static_cast<double>(stats.shed_deadline));
        // Both sides of the subtraction are means over the timed requests.
        const auto after = registry_latency(engine, kinds);
        const double run_mean = ratio(after.first - before.first,
                                      static_cast<double>(after.second - before.second));
        double client_sum = 0;
        for (const double latency : pass.latencies) { client_sum += latency; }
        const double client_mean =
            ratio(client_sum, static_cast<double>(pass.latencies.size()));
        m.set("serve.run_s", run_mean);
        m.set("serve.queue_wait_s", client_mean - run_mean);
        sim.per_layer(m);
        common_layers(built, ctx.spans, ctx.op, ctx.builds, m);
    } else {
        sim.end_to_end(ctx.out.end_to_end);
    }
    return pass;
}

// --- rgg-query --------------------------------------------------------------

/// RGG2D with spatial ID locality: almost every triangle is local, so the
/// local phase, per-query preprocessing and graph construction dominate. A
/// cold Engine, one client, one query at a time.
Pass rgg_query(PassContext& ctx) {
    const auto& params = ctx.params;
    Config config;
    config.num_ranks = kRanks;
    config.metrics = ctx.traced;

    const std::uint64_t graph_seed = mix64(params.seed ^ 0x72676732);
    const auto n = params.sizes.rgg_n;
    const Generator generate = [&] {
        return gen::generate_rgg2d_local(n, gen::rgg2d_radius_for_degree(n, 16.0),
                                         graph_seed);
    };
    Pass pass;
    Built built;
    pass.setup =
        build_repeatedly(ctx.builds, generate, config, false, ctx.spans, ctx.op, built);
    auto& engine = *built.engine;
    const auto& graph = *built.graph;
    const auto oracle =
        make_oracle(graph, true, params.corrupt_oracle, ctx.spans, ++ctx.op);
    if (!ctx.traced) { print_input(params, graph_seed, built); }

    struct Op {
        Query query;
        core::Algorithm algorithm;
    };
    const std::vector<Op> distinct = {
        {Query::kCount, core::Algorithm::kDitric},
        {Query::kCount, core::Algorithm::kDitric2},
        {Query::kCount, core::Algorithm::kCetric},
        {Query::kCount, core::Algorithm::kCetric2},
        {Query::kLcc, core::Algorithm::kDitric},
        {Query::kEnumerate, core::Algorithm::kDitric},
    };
    // The operation list (indices into `distinct`): counts, lcc and
    // enumerate 12:2:1 in a seed-shuffled order. Enumeration collects and
    // sorts every triangle, so it is the slowest kind and the one whose host
    // time swings most between runs; at 1/15 of the mix it stays out of the
    // p90, which falls inside the lcc group.
    std::vector<std::size_t> order;
    for (int rep = 0; rep < 3; ++rep) {
        for (std::size_t i = 0; i < 4; ++i) { order.push_back(i); }
    }
    order.insert(order.end(), {4, 4, 5});
    shuffle(order, mix64(params.seed ^ 0x6f70730a));
    const auto run = [&](const Op& op) {
        QueryOptions query;
        query.algorithm = op.algorithm;
        switch (op.query) {
            case Query::kLcc: return engine.lcc(query);
            case Query::kEnumerate: return engine.enumerate(query);
            default: return engine.count(query);
        }
    };

    // Reference pass: each distinct operation once, against the oracle.
    std::vector<Report> refs;
    for (const auto& op : distinct) {
        Report report;
        {
            const SpanScope span(ctx.spans, "engine.query." + query_name(op.query),
                                 ++ctx.op);
            report = run(op);
        }
        switch (op.query) {
            case Query::kLcc: ctx.out.tally.check(check_lcc(report, oracle)); break;
            case Query::kEnumerate:
                ctx.out.tally.check(check_enumerate(report, oracle, graph));
                break;
            default: ctx.out.tally.check(check_count(report, oracle)); break;
        }
        refs.push_back(std::move(report));
    }
    SimTotals sim;
    for (const auto i : order) { sim.add(refs[i]); }

    // The throughput window is the loop's wall time without the checks.
    const double loop_start = now_s();
    const double deadline = loop_start + ctx.seconds;
    double checking = 0;
    for (std::size_t i = 0;
         now_s() < deadline || pass.latencies.size() < params.sizes.min_ops; ++i) {
        const std::size_t index = order[i % order.size()];
        const auto& op = distinct[index];
        const std::uint64_t id = ++ctx.op;
        const double start = now_s();
        Report report = run(op);
        const double latency = now_s() - start;
        ctx.spans.add("engine.query." + query_name(op.query), start, start + latency, id);
        pass.latencies.push_back(latency);
        ++pass.window_ops;
        ctx.out.tally.check(check_same(report, refs[index]));
        checking += now_s() - start - latency;
    }
    pass.window_seconds = now_s() - loop_start - checking;

    if (ctx.traced) {
        sim.per_layer(ctx.out.per_layer);
        common_layers(built, ctx.spans, ctx.op, ctx.builds, ctx.out.per_layer);
    } else {
        sim.end_to_end(ctx.out.end_to_end);
    }
    return pass;
}

// --- rhg-stream -------------------------------------------------------------

bool same_batch(const stream::BatchStats& a, const stream::BatchStats& b) {
    return a.events == b.events && a.net_inserts == b.net_inserts
           && a.net_deletes == b.net_deletes && a.delta == b.delta
           && a.triangles == b.triangles
           && a.seconds == b.seconds && a.lcc_seconds == b.lcc_seconds
           && a.messages_sent == b.messages_sent && a.words_sent == b.words_sent
           && a.error.domain == b.error.domain && a.error.code == b.error.code;
}

/// Random hyperbolic graph with angular locality, mutated by a churn stream
/// (40% deletes) in fixed-size batches; Δ/LCC maintained incrementally.
/// Each round replays the same batch list on a freshly opened session.
Pass rhg_stream(PassContext& ctx) {
    const auto& params = ctx.params;
    const auto& sizes = params.sizes;
    Config config;
    config.num_ranks = kRanks;
    config.algorithm = core::Algorithm::kCetric;
    config.maintain_lcc = true;
    config.metrics = ctx.traced;

    // One fixed instance: at this size the RHG degree tail differs too much
    // between generator seeds (E[d^2] varies 6x over seeds 1-6) for a
    // per-batch median to be comparable across runs. The run seed drives
    // the churn stream and the sampled recounts.
    const std::uint64_t graph_seed = mix64(0x726867);
    const auto n = sizes.rhg_n;
    const Generator generate = [&] {
        return gen::generate_rhg_local(n, 16.0, 2.8, graph_seed);
    };
    Pass pass;
    Built built;
    pass.setup =
        build_repeatedly(ctx.builds, generate, config, true, ctx.spans, ctx.op, built);
    auto& engine = *built.engine;
    const auto oracle =
        make_oracle(*built.graph, false, params.corrupt_oracle, ctx.spans, ++ctx.op);
    if (!ctx.traced) { print_input(params, graph_seed, built); }

    const auto batches =
        stream::make_churn_stream(*built.graph, sizes.stream_batches * sizes.batch_events,
                                  0.4, mix64(params.seed ^ 0x63687572))
            .batches_of(sizes.batch_events);
    // Batches whose state is recounted from scratch in the reference round.
    std::vector<std::size_t> sampled(batches.size());
    std::iota(sampled.begin(), sampled.end(), std::size_t{0});
    shuffle(sampled, mix64(params.seed ^ 0x73616d70));
    sampled.resize(std::min<std::size_t>(4, sampled.size()));

    SpanLog untimed(false);  // recounts of mutated graphs are not the oracle layer
    const auto recount = [&](const StreamSession& session, bool with_lcc) {
        const auto global = session.materialize_global();
        return make_oracle(global, with_lcc, params.corrupt_oracle, untimed, 0);
    };

    // Reference round on the session opened during set-up.
    auto& session0 = *built.stream;
    ctx.out.tally.check(session0.initial().triangles == oracle.triangles
                            ? std::string{}
                            : "stream: initial count differs from oracle");
    std::vector<stream::BatchStats> refs;
    double events = 0, useful = 0, batch_sim = 0, batch_words = 0, batch_messages = 0;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const auto stats = session0.ingest(batches[i]);
        std::string problem = stats.error.ok() ? "" : "stream: batch rejected";
        const bool last = i + 1 == batches.size();
        const bool recount_here =
            last || std::find(sampled.begin(), sampled.end(), i) != sampled.end();
        if (problem.empty() && recount_here) {
            const auto truth = recount(session0, last);
            if (stats.triangles != truth.triangles) {
                problem = "stream: batch " + std::to_string(i) + " count "
                          + std::to_string(stats.triangles) + ", recount "
                          + std::to_string(truth.triangles);
            } else if (last && session0.delta() != truth.lcc.delta) {
                problem = "stream: maintained per-vertex counts differ from recount";
            }
        }
        ctx.out.tally.check(problem);
        events += static_cast<double>(stats.events);
        useful += static_cast<double>(stats.net_inserts + stats.net_deletes);
        batch_sim += stats.seconds + stats.lcc_seconds;
        batch_words += static_cast<double>(stats.words_sent);
        batch_messages += static_cast<double>(stats.messages_sent);
        refs.push_back(stats);
    }
    const auto count = static_cast<double>(batches.size());
    const Report stream_report = session0.report();

    // The throughput window is the loop's wall time, each round's
    // open_stream included, without the checks.
    const double loop_start = now_s();
    const double deadline = loop_start + ctx.seconds;
    double checking = 0;
    bool more = true;
    while (more) {
        const auto reopen = ctx.spans.open("stream.open", ++ctx.op);
        auto session = engine.open_stream();
        ctx.spans.close(reopen);
        for (std::size_t i = 0; i < batches.size(); ++i) {
            const std::uint64_t id = ++ctx.op;
            const double start = now_s();
            const auto stats = session.ingest(batches[i]);
            const double latency = now_s() - start;
            ctx.spans.add("stream.ingest", start, start + latency, id);
            pass.latencies.push_back(latency);
            ++pass.window_ops;
            ctx.out.tally.check(same_batch(stats, refs[i])
                                    ? std::string{}
                                    : "stream: batch " + std::to_string(i)
                                          + " differs from the reference round");
            checking += now_s() - start - latency;
            if (now_s() >= deadline && pass.latencies.size() >= sizes.min_ops) {
                more = false;
                break;
            }
        }
    }
    pass.window_seconds = now_s() - loop_start - checking;

    if (ctx.traced) {
        auto& m = ctx.out.per_layer;
        SimTotals initial;  // the session's static CETRIC count
        Report initial_report;
        initial_report.count = session0.initial();
        initial.add(initial_report);
        initial.per_layer(m);
        const auto per_batch = [&](std::uint64_t total) {
            return ratio(static_cast<double>(total), count);
        };
        m.set("seq.compute_ops_total", per_batch(stream_report.total_compute_ops));
        m.set("seq.compute_ops_max", per_batch(stream_report.max_compute_ops));
        for (const auto& phase : stream_report.phases) {
            if (phase.name == "stream") {
                m.set("net.phase_words.stream", per_batch(phase.words_sent));
            }
        }
        m.set("stream.ingest_s", median(ctx.spans.durations("stream.ingest")));
        m.set("stream.batch_sim_s", ratio(batch_sim, count));
        m.set("stream.batch_words", ratio(batch_words, count));
        m.set("stream.batch_messages", ratio(batch_messages, count));
        m.set("stream.effective_update_share", ratio(useful, events));
        common_layers(built, ctx.spans, ctx.op, ctx.builds, m);
    } else {
        // BatchStats carries machine-wide totals only, so the bottleneck
        // metrics here are per-batch totals over all PEs (an upper bound on
        // the bottleneck PE's share).
        auto& m = ctx.out.end_to_end;
        m.set("sim_time_s", ratio(batch_sim, count));
        m.set("sim_bottleneck_words", ratio(batch_words, count));
        m.set("sim_bottleneck_messages", ratio(batch_messages, count));
    }
    return pass;
}

// --- entry ------------------------------------------------------------------

using Workload = Pass (*)(PassContext&);

const std::map<std::string, Workload>& workloads() {
    static const std::map<std::string, Workload> table = {
        {"rmat-serve", &rmat_serve},
        {"rgg-query", &rgg_query},
        {"rhg-stream", &rhg_stream},
    };
    return table;
}

void print_machine(const Params& params) {
    const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
    std::cout << "# machine: nproc=" << std::thread::hardware_concurrency()
              << " simd_available=" << (seq::simd_available() ? 1 : 0)
              << " compiler=\"" << __VERSION__
              << "\" build_type=" << KATRIC_PERFBENCH_BUILD_TYPE
              << " llc_bytes=" << (llc > 0 ? llc : 0) << '\n';
    std::cout << "# run: workload=" << params.workload << " seed=" << params.seed
              << " seconds=" << params.seconds << " trace=" << (params.trace ? 1 : 0)
              << " threads=" << params.threads << '\n';
}

int run(const Params& params) {
    print_machine(params);
    const auto workload = workloads().at(params.workload);
    Outcome out;
    if (!params.trace) {
        SpanLog spans(false);
        PassContext ctx{params, false, params.seconds, params.sizes.builds, spans, out};
        const Pass pass = workload(ctx);
        auto& m = out.end_to_end;
        m.set("setup_s", median(pass.setup));
        m.set("latency_p50_s", percentile(pass.latencies, 0.50));
        m.set("latency_p90_s", percentile(pass.latencies, 0.90));
        m.set("throughput_ops_s", pass.throughput());
        m.set("peak_rss_mb", peak_rss_mb());
        std::cout << "# operations: timed=" << pass.latencies.size()
                  << " window_ops=" << pass.window_ops
                  << " window_s=" << pass.window_seconds << '\n';
    } else {
        // Untraced and traced halves of equal length; their throughput
        // ratio is the observability overhead.
        SpanLog off(false);
        PassContext untraced{params, false, params.seconds / 2, 1, off, out};
        const double base = workload(untraced).throughput();

        SpanLog spans(true);
        PassContext traced{params, true, params.seconds / 2, params.sizes.builds, spans,
                           out};
        const double with_trace = workload(traced).throughput();
        out.per_layer.set("obs.overhead_frac", 1.0 - ratio(with_trace, base));
        if (!params.spans_out.empty() && !spans.write_json(params.spans_out)) {
            std::cerr << "perfbench: cannot write spans to " << params.spans_out << '\n';
            return 1;
        }
    }
    const auto& tally = out.tally;
    out.per_layer.set("failed_frac", ratio(static_cast<double>(tally.failed),
                                           static_cast<double>(tally.attempted)));
    const bool correct = !tally.wrong;
    const auto& metrics = params.trace ? out.per_layer : out.end_to_end;
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << tally.attempted
              << ", \"failed\": " << tally.failed
              << ", \"metrics\": " << metrics.to_json() << "}" << std::endl;
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    katric::CliParser cli("katric_perfbench",
                          "katric end-to-end benchmark (see README.md)");
    cli.option("workload", "", "rmat-serve | rgg-query | rhg-stream");
    cli.option("seed", "1", "workload seed: graph, operation order and stream");
    cli.option("seconds", "10", "measured seconds per run");
    cli.option("trace", "0",
               "0: end-to-end metrics; 1: per-layer metrics from a traced run");
    cli.option("spans-out", "", "traced runs: write the benchmark's spans here as JSON");
    cli.flag("tiny", "tiny inputs (self-test)");
    cli.flag("corrupt-oracle",
             "self-test: add 1 to every oracle answer; the run must fail");
    try {
        if (!cli.parse(argc, argv)) { return 0; }
        Params params;
        params.workload = cli.get_string("workload");
        if (!workloads().contains(params.workload)) {
            std::cerr << "katric_perfbench: unknown --workload '" << params.workload
                      << "'\n";
            return 2;
        }
        params.seed = cli.get_uint("seed");
        params.seconds = cli.get_double("seconds");
        params.trace = cli.get_uint("trace") != 0;
        params.threads = std::max(1U, std::thread::hardware_concurrency());
        params.spans_out = cli.get_string("spans-out");
        params.corrupt_oracle = cli.get_flag("corrupt-oracle");
        if (cli.get_flag("tiny")) { params.sizes = tiny_sizes(); }
        return run(params);
    } catch (const std::exception& error) {
        std::cerr << "katric_perfbench: " << error.what() << '\n';
        return 2;
    }
}
