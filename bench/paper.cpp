// The paper driver: every figure, table and ablation of the evaluation
// (Fig. 2, Figs. 5–8, Table I, the Section IV ablations and the Section IV-E
// AMQ trade-off) as a named grid, plus `stream`, incremental maintenance
// against a full pass per batch, and `golden-core`, a grid over the
// configuration space. Each grid holds its axes at two sizes: `paper` (the
// figures' sizes) and `golden` (n <= 1024, small p). Every cell becomes one
// JSON row — a Report's fields plus the cell's key — and every exact result
// is checked against the sequential oracle before it is printed or compared.
//
//   bench_paper --grid fig5                      # reproduce Fig. 5
//   bench_paper --grid fig5 --size golden --check tests/golden/fig5.json
//   bench_paper --grid fig5 --size golden --check tests/golden/fig5.json --update
//
// --check compares the rendered rows with the golden file byte for byte:
// JsonWriter prints doubles with 17 significant digits, which round-trip,
// so equal text means equal bits.

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "bench_common.hpp"
#include "gen/gnm.hpp"
#include "gen/grid.hpp"
#include "gen/proxies.hpp"
#include "gen/rgg2d.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "graph/graph_stats.hpp"
#include "graph/load_balance.hpp"
#include "graph/permutation.hpp"
#include "net/message_queue.hpp"
#include "seq/edge_iterator.hpp"
#include "seq/lcc.hpp"
#include "stream/edge_stream.hpp"
#include "util/bits.hpp"
#include "util/hash.hpp"

namespace {

using namespace katric;
using core::Algorithm;
using graph::CsrGraph;
using graph::VertexId;
using Ps = std::vector<std::uint64_t>;

enum class Size { kPaper, kGolden };

// --- instances -------------------------------------------------------------

CsrGraph rgg(VertexId n, std::uint64_t seed) {
    return gen::generate_rgg2d_local(n, gen::rgg2d_radius_for_degree(n, 16.0), seed);
}

CsrGraph shuffled(const CsrGraph& g, std::uint64_t seed) {
    return graph::apply_permutation(g, graph::random_permutation(g.num_vertices(), seed));
}

/// A Table I proxy: the registry's instance at paper size; at golden size
/// the same family recipe (generator, degree, order) at n <= 1024.
CsrGraph proxy(const std::string& name, Size size) {
    if (size == Size::kPaper) { return gen::build_proxy(name); }
    constexpr std::uint64_t seed = 0xca7a10c5;  // the registry's seeds
    constexpr VertexId n = 1024;
    const auto social = [&](const CsrGraph& g, std::uint64_t i) {
        return shuffled(g, seed + i);
    };
    const auto rmat = [&](std::uint64_t m, std::uint64_t i) {
        return social(gen::generate_rmat(10, m * n, seed + i), 100 + i);
    };
    const auto rhg = [&](double degree, double gamma, std::uint64_t i) {
        return gen::generate_rhg_local(n, degree, gamma, seed + i);
    };
    const auto road = [&](double keep, double diagonal, std::uint64_t i) {
        return gen::generate_grid_road(32, 32, keep, diagonal, seed + i);
    };
    if (name == "live-journal") { return rmat(8, 1); }
    if (name == "orkut") { return rmat(38, 2); }
    if (name == "twitter") {
        return social(gen::generate_rhg(n, 28.0, 2.2, seed + 3), 103);
    }
    if (name == "friendster") { return rmat(26, 4); }
    if (name == "uk-2007-05") { return rhg(32.0, 2.4, 5); }
    if (name == "webbase-2001") { return rhg(14.0, 2.6, 6); }
    if (name == "europe") { return road(0.95, 0.05, 7); }
    if (name == "usa") { return road(0.97, 0.03, 8); }
    KATRIC_THROW("unknown proxy instance '" << name << "'");
}

// --- the oracle ------------------------------------------------------------

/// The sequential reference for one instance, computed on first use. The
/// count comes from two references that share no intersection kernel, so a
/// broken kernel cannot corrupt the distributed run and its oracle alike.
class Oracle {
public:
    explicit Oracle(const CsrGraph& graph) : graph_(graph) {}

    std::uint64_t triangles() {
        if (!triangles_) {
            triangles_ = seq::count_edge_iterator(graph_).triangles;
            std::uint64_t corners = 0;
            for (const auto d : lcc().delta) { corners += d; }
            KATRIC_ASSERT_MSG(corners == 3 * *triangles_,
                              "sequential references disagree: edge iterator "
                                  << *triangles_ << " triangles, per-vertex Δ sum "
                                  << corners << " / 3");
        }
        return *triangles_;
    }
    const seq::LccOracle& lcc() {
        if (!lcc_) { lcc_ = seq::compute_lcc_oracle(graph_); }
        return *lcc_;
    }

private:
    const CsrGraph& graph_;
    std::optional<std::uint64_t> triangles_;
    std::optional<seq::LccOracle> lcc_;
};

/// What a cell must produce: an answer (exact unless marked as an estimate;
/// an OOM is a typed non-answer the paper plots too), or one typed failure.
enum class Expect { kAnswer, kOom, kNetError, kSinkUnsupported };

std::uint64_t bits(std::uint64_t v) { return v; }
std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
std::uint64_t bits(const core::Triangle& t) {
    return hash_combine(hash_combine(hash64(t.a), t.b), t.c);
}

/// Order-sensitive digest of a payload (Δ, LCC bit patterns, triangles).
template <typename T>
std::uint64_t digest(const std::vector<T>& values) {
    std::uint64_t h = values.size();
    for (const auto& v : values) { h = hash_combine(h, bits(v)); }
    return h;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size()
           && std::equal(a.begin(), a.end(), b.begin(),
                         [](double x, double y) { return bits(x) == bits(y); });
}

// --- rows ------------------------------------------------------------------

using Fields = std::map<std::string, std::string>;

/// The rows of a rendered JsonWriter document, without the separating commas.
std::vector<std::string> rows_of(const std::string& document) {
    std::vector<std::string> rows;
    std::istringstream in(document);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("  {", 0) != 0) { continue; }
        if (line.back() == ',') { line.pop_back(); }
        rows.push_back(line);
    }
    return rows;
}

/// Splits one rendered row into its fields: key -> rendered value.
Fields parse_row(const std::string& row) {
    Fields fields;
    for (auto key = row.find('"'); key != std::string::npos; key = row.find('"', key)) {
        const auto value = row.find("\": ", key) + 3;
        auto end = value;
        bool quoted = false;
        for (int depth = 0; end < row.size(); ++end) {
            const char c = row[end];
            if (quoted) {
                end += c == '\\' ? 1 : 0;  // an escaped character
                quoted = c != '"';
            } else if (c == '"') {
                quoted = true;
            } else if (depth == 0 && (c == ',' || c == '}')) {
                break;
            } else {
                depth += (c == '[' ? 1 : 0) - (c == ']' ? 1 : 0);
            }
        }
        fields[row.substr(key + 1, value - key - 4)] = row.substr(value, end - value);
        key = end;
    }
    return fields;
}

/// A rendered value as a table cell: strings unquoted, doubles to 4 digits.
std::string display(const std::string& value) {
    if (value.empty()) { return "-"; }
    if (value.front() == '"') { return value.substr(1, value.size() - 2); }
    if (value.front() != '[' && value.find_first_of(".en") != std::string::npos) {
        std::ostringstream out;
        out << std::setprecision(4) << std::stod(value);
        return out.str();
    }
    return value;
}

std::string fmt(double value) {
    std::ostringstream out;
    out << value;
    return out.str();
}

/// What every grid writes into: its size, the base Config from the shared
/// flags, and one JSON row per cell, keyed by a unique `cell` string.
class Output {
public:
    Output(std::string grid, Size size, Config base)
        : grid_(std::move(grid)), size_(size), base_(std::move(base)) {}

    [[nodiscard]] const std::string& grid() const noexcept { return grid_; }
    [[nodiscard]] Size size() const noexcept { return size_; }
    [[nodiscard]] const JsonWriter& json() const noexcept { return json_; }

    /// One axis of the grid, by size.
    template <typename T>
    [[nodiscard]] T pick(T paper, T golden) const {
        return size_ == Size::kGolden ? golden : paper;
    }

    /// The base Config on p ranks. Golden runs record metrics, so the phase
    /// arrays carry messages and words.
    [[nodiscard]] Config config(std::uint64_t p) const {
        Config config = base_;
        config.num_ranks = static_cast<graph::Rank>(p);
        if (size_ == Size::kGolden) { config.metrics = true; }
        return config;
    }

    /// Makes `graph` the instance the following reports are checked against.
    void instance(const CsrGraph& graph) { oracle_.emplace(graph); }

    JsonWriter& row(const std::string& cell) {
        KATRIC_ASSERT_MSG(cells_.insert(cell).second,
                          "grid " << grid_ << " repeats cell \"" << cell << '"');
        return json_.begin_row().field("cell", cell);
    }

    [[noreturn]] void fail(const std::string& cell, const std::string& what) const {
        KATRIC_THROW("oracle mismatch in grid " << grid_ << ", cell \"" << cell
                                                << "\": " << what);
    }

    /// Checks `report` against the oracle, so no golden file can freeze a
    /// wrong answer: counts, Δ and LCC bits, enumerate's list length. A
    /// failed run is checked only for its typed error.
    void check(const std::string& cell, const Report& report, Expect expect) {
        Oracle& oracle = *oracle_;
        if (!report.ok()) {
            const bool typed =
                expect == Expect::kNetError ? report.error.domain == Error::Domain::kNet
                : expect == Expect::kSinkUnsupported
                    ? report.error == core::RunError::kSinkUnsupported
                    : report.count.oom;
            if (!typed) {
                fail(cell, "unexpected failure: "
                               + (report.count.oom ? "OOM" : report.error.message));
            }
            return;
        }
        if (expect != Expect::kAnswer) { fail(cell, "expected a typed failure"); }
        // Explicitly marked estimates have no exact answer to check.
        if (report.degraded || report.query == Query::kApprox) { return; }
        if (report.count.triangles != oracle.triangles()) {
            fail(cell, std::to_string(report.count.triangles) + " triangles, oracle "
                           + std::to_string(oracle.triangles()));
        }
        if (report.query == Query::kLcc
            && (report.delta != oracle.lcc().delta
                || !same_bits(report.lcc, oracle.lcc().lcc))) {
            fail(cell, "Δ or LCC differs from the oracle");
        }
        if (report.query == Query::kEnumerate
            && report.triangles.size() != report.count.triangles) {
            fail(cell, "enumerated " + std::to_string(report.triangles.size())
                           + " triangles, counted "
                           + std::to_string(report.count.triangles));
        }
    }

    /// Checks, then emits one row: the cell, the Report's fields, payload
    /// digests and (with `config`) its flags.
    JsonWriter& report(const std::string& cell, const Report& report,
                       Expect expect = Expect::kAnswer, const Config* config = nullptr) {
        check(cell, report, expect);
        auto& json = row(cell).report_fields(report);
        if (!report.delta.empty()) { json.field("delta_hash", digest(report.delta)); }
        if (!report.lcc.empty()) { json.field("lcc_hash", digest(report.lcc)); }
        if (!report.triangles.empty()) {
            json.field("triangles_hash", digest(report.triangles));
        }
        if (config != nullptr) { json.field("command", config->to_command_line()); }
        return json;
    }

private:
    std::string grid_;
    Size size_;
    Config base_;
    JsonWriter json_;
    std::set<std::string> cells_;
    std::optional<Oracle> oracle_;
};

std::string key(const std::string& name, std::uint64_t value) {
    return name + "=" + std::to_string(value);
}

std::string algo(Algorithm algorithm) {
    return "algo=" + core::algorithm_name(algorithm);
}

const std::vector<Algorithm> kPaperAlgorithms = {
    Algorithm::kDitric,  Algorithm::kDitric2,      Algorithm::kCetric,
    Algorithm::kCetric2, Algorithm::kHavoqgtStyle, Algorithm::kTricStyle};

// --- the paper's figures ---------------------------------------------------

void fig2(Output& out) {
    const auto g = proxy("friendster", out.size());
    out.instance(g);
    for (const auto p : out.pick<Ps>({2, 4, 8, 16, 32, 64, 128}, {2, 4, 8})) {
        // Both series run against the same build.
        Engine engine(g, out.config(p));
        for (const auto a : {Algorithm::kDitric, Algorithm::kEdgeIteratorUnbuffered}) {
            out.report(key("cores", p) + " " + algo(a), engine.count(a));
        }
    }
}

/// Fig. 5: weak scaling, n/p fixed; GNM/RMAT use 4x fewer vertices per PE.
/// The per-PE memory budget follows the (constant) per-PE input size.
void fig5(Output& out) {
    const std::uint64_t log_n = out.pick(10, 8);
    const auto build = [](const std::string& family, VertexId n) {
        if (family == "RGG2D") { return rgg(n, 42); }
        if (family == "RHG") { return gen::generate_rhg_local(n, 16.0, 2.8, 42); }
        if (family == "GNM") { return gen::generate_gnm(n, 16 * n, 42); }
        return gen::generate_rmat(static_cast<std::uint32_t>(floor_log2(n)), 16 * n, 42);
    };
    for (const std::string family : {"RGG2D", "RHG", "GNM", "RMAT"}) {
        const auto pe_log = log_n - (family == "GNM" || family == "RMAT" ? 2 : 0);
        for (const auto p : out.pick<Ps>({1, 2, 4, 8, 16, 32, 64}, {1, 2, 4})) {
            const VertexId n = (VertexId{1} << pe_log) * p;
            const auto g = build(family, n);
            out.instance(g);
            Config config = out.config(p);
            config.network.memory_limit_words = 48 * (2 * g.num_edges() + n) / p;
            Engine engine(g, config);
            for (const auto a : kPaperAlgorithms) {
                const auto cell = "family=" + family + " " + key("cores", p) + " ";
                out.report(cell + key("n", n) + " " + algo(a), engine.count(a));
            }
        }
    }
}

/// Fig. 6: strong scaling on the eight proxies. Fixed memory per core, sized
/// at the largest p: small-p runs may OOM, as TriC does in the paper.
void fig6(Output& out) {
    const auto ps = out.pick<Ps>({4, 8, 16, 32, 64}, {4, 8});
    for (const auto& spec : gen::proxy_registry()) {
        const auto g = proxy(spec.name, out.size());
        out.instance(g);
        for (const auto p : ps) {
            Config config = out.config(p);
            config.network.memory_limit_words =
                52 * (2 * g.num_edges() + g.num_vertices()) / ps.back();
            Engine engine(g, config);
            for (const auto a : kPaperAlgorithms) {
                const auto cell = "instance=" + spec.name + " " + key("cores", p) + " ";
                out.report(cell + algo(a), engine.count(a));
            }
        }
    }
}

/// Fig. 7: the phase breakdown of the better DITRIC variant against the
/// better CETRIC variant; each pick's superstep groups print as a table.
void fig7(Output& out) {
    for (const std::string name : {"friendster", "webbase-2001", "live-journal"}) {
        const auto g = proxy(name, out.size());
        out.instance(g);
        for (const auto p : out.pick<Ps>({8, 16, 32, 64}, {4, 8})) {
            Engine engine(g, out.config(p));
            for (const auto& [direct, indirect] :
                 {std::pair{Algorithm::kDitric, Algorithm::kDitric2},
                  std::pair{Algorithm::kCetric, Algorithm::kCetric2}}) {
                const std::string cell = "instance=" + name + " " + key("cores", p) + " "
                                         + algo(direct) + "/2";
                const auto a = engine.count(direct);
                const auto b = engine.count(indirect);
                out.check(cell, a, Expect::kAnswer);
                out.check(cell, b, Expect::kAnswer);
                const bool direct_wins =
                    !a.count.oom
                    && (b.count.oom || a.count.total_time <= b.count.total_time);
                const auto& best = direct_wins ? a : b;
                out.report(cell, best);
                std::cout << cell << " -> " << core::algorithm_name(best.algorithm)
                          << ":\n"
                          << best.phase_table() << '\n';
            }
        }
    }
}

/// Fig. 8: hybrid DITRIC2, cores = ranks x threads held fixed; then the
/// appendix's other reading, threads added at a fixed rank count.
void fig8(Output& out) {
    const auto g = proxy("orkut", out.size());
    out.instance(g);
    const auto thread_counts = out.pick<Ps>({1, 3, 6, 12, 24, 48}, {1, 2, 4, 8});
    const auto run = [&](std::uint64_t ranks, std::uint64_t threads) {
        Config config = out.config(ranks);
        config.algorithm = Algorithm::kDitric2;
        config.options.threads = static_cast<int>(threads);
        Engine engine(g, config);
        return engine.count();
    };
    for (const auto cores : out.pick<Ps>({48, 96}, {8, 16})) {
        for (const auto threads : thread_counts) {
            if (cores % threads != 0) { continue; }
            const auto cell = key("cores", cores) + " " + key("threads", threads);
            out.report(cell, run(cores / threads, threads));
        }
    }
    const std::uint64_t ranks = out.pick(8, 4);
    double local_base = 0.0;
    for (const auto threads : thread_counts) {
        const auto report = run(ranks, threads);
        if (local_base == 0.0) { local_base = report.count.local_time; }
        out.report(key("fixed-ranks", ranks) + " " + key("threads", threads), report)
            .field("local_speedup", local_base / report.count.local_time);
    }
}

void table1(Output& out) {
    for (const auto& spec : gen::proxy_registry()) {
        const auto g = proxy(spec.name, out.size());
        const auto stats = graph::compute_stats(g);
        out.row(spec.name)
            .field("family", spec.family)
            .field("n", std::uint64_t{stats.n})
            .field("m", std::uint64_t{stats.m})
            .field("oriented_wedges", stats.oriented_wedges)
            .field("triangles", seq::count_edge_iterator(g).triangles)
            .field("paper_n", spec.paper_n)
            .field("paper_m", spec.paper_m)
            .field("paper_wedges", spec.paper_wedges)
            .field("paper_triangles", spec.paper_triangles);
    }
    if (out.size() == Size::kPaper) {
        for (const auto& spec : gen::proxy_registry()) {
            std::cout << "  " << spec.name << ": " << spec.generator << '\n';
        }
    }
}

// --- ablations -------------------------------------------------------------

/// Delta-varint compression × {DITRIC, CETRIC} × {spatial, shuffled} IDs.
void ablation_compression(Output& out) {
    const VertexId n = VertexId{1} << out.pick(13, 10);
    const auto spatial = rgg(n, 3);
    const auto shuffled_ids = shuffled(spatial, 99);
    for (const auto& [order, g] : {std::pair{"spatial", &spatial},
                                   std::pair{"shuffled", &shuffled_ids}}) {
        out.instance(*g);
        std::map<Algorithm, double> plain_words;
        for (const bool compressed : {false, true}) {
            Config config = out.config(out.pick(16, 8));
            config.options.compress_neighborhoods = compressed;
            Engine engine(*g, config);
            for (const auto a : {Algorithm::kDitric, Algorithm::kCetric}) {
                const auto report = engine.count(a);
                const auto words = static_cast<double>(report.count.total_words_sent);
                if (!compressed) { plain_words[a] = words; }
                const auto cell = std::string("order=") + order + " ";
                out.report(cell + key("compressed", compressed) + " " + algo(a), report)
                    .field("volume_saved_pct", 100.0 * (1.0 - words / plain_words[a]));
            }
        }
    }
}

/// Runs a traffic pattern through per-PE queues with the given router:
/// every PE posts one 8-word record to each destination pattern(r) lists.
using Word = std::uint64_t;

void run_pattern(Output& out, const std::string& cell, graph::Rank p,
                 const net::Router& router,
                 const std::function<std::vector<graph::Rank>(graph::Rank)>& pattern) {
    net::Simulator sim(p, out.config(p).network);
    std::vector<net::MessageQueue> queues;
    queues.reserve(p);
    for (graph::Rank r = 0; r < p; ++r) { queues.emplace_back(1 << 16, router, 1); }
    sim.run_phase(
        "pattern",
        [&](net::RankHandle& self) {
            const std::uint64_t record[8] = {self.rank(), 1, 2, 3, 4, 5, 6, 7};
            for (const auto dest : pattern(self.rank())) {
                queues[self.rank()].post(self, dest, record);
            }
        },
        [&](net::RankHandle& self, graph::Rank, int, std::span<const Word> payload) {
            queues[self.rank()].handle(self, payload,
                                       [](net::RankHandle&, std::span<const Word>) {});
        },
        [&](net::RankHandle& self) { queues[self.rank()].flush(self); });
    std::uint64_t max_received = 0;
    std::uint64_t words = 0;
    for (const auto& m : sim.rank_metrics()) {
        max_received = std::max(max_received, m.messages_received);
        words += m.words_sent;
    }
    out.row(cell)
        .field("time", sim.time())
        .field("max_msgs_recv", max_received)
        .field("total_words", words);
}

/// Section IV-B: direct vs grid delivery on synthetic traffic, no graph.
void ablation_indirection(Output& out) {
    for (const std::string name : {"all-to-one", "uniform"}) {
        for (const auto p64 : out.pick<Ps>({16, 64, 256, 1024}, {4, 16})) {
            const auto p = static_cast<graph::Rank>(p64);
            const auto pattern = [&](graph::Rank r) {
                std::vector<graph::Rank> dests;
                for (graph::Rank d = 0; d < p; ++d) {
                    if (d != r && (name == "uniform" || d == 0)) { dests.push_back(d); }
                }
                return dests;
            };
            const std::string cell = "pattern=" + name + " " + key("p", p64);
            run_pattern(out, cell + " router=direct", p, net::DirectRouter{}, pattern);
            run_pattern(out, cell + " router=grid", p, net::GridRouter(p), pattern);
        }
    }
}

/// Section IV-D: degree-based cost functions for the 1-D partition, next to
/// the one-time volume of redistributing from the uniform layout.
void ablation_loadbalance(Output& out) {
    const auto scale = static_cast<std::uint32_t>(out.pick(12, 10));
    const auto g = gen::generate_rmat(scale, (VertexId{1} << scale) * 16, 5);
    out.instance(g);
    const Config config = out.config(out.pick(16, 8));
    const auto p = config.num_ranks;
    const auto uniform = graph::Partition1D::uniform(g.num_vertices(), p);
    std::vector<std::pair<std::string, graph::Partition1D>> schemes{
        {"uniform-vertices", uniform},
        {"balanced-edges", graph::Partition1D::balanced_by_edges(g, p)}};
    for (const auto fn : {graph::CostFunction::kDegreeSq,
                          graph::CostFunction::kOrientedWedges}) {
        schemes.emplace_back(graph::cost_function_name(fn),
                             graph::partition_by_cost(g, p, fn));
    }
    for (const auto& [name, partition] : schemes) {
        // Cost-based splits are no Config strategy: inject the partition.
        Engine engine(g, config, partition);
        const auto moved = graph::redistribution_volume(g, uniform, partition);
        const double moved_pct =
            100.0 * static_cast<double>(moved) / static_cast<double>(2 * g.num_edges());
        for (const auto a : {Algorithm::kCetric, Algorithm::kDitric}) {
            out.report("partition=" + name + " " + algo(a), engine.count(a))
                .field("redistribution_words", moved)
                .field("redistribution_pct", moved_pct);
        }
    }
}

/// Section IV-C: contraction pays when vertex order follows structure —
/// natural, shuffled, and BFS-relabeled-after-shuffling orders.
void ablation_locality(Output& out) {
    const VertexId n = VertexId{1} << out.pick(13, 10);
    const auto natural = rgg(n, 3);
    const auto shuffled_ids = shuffled(natural, 99);
    const auto restored =
        graph::apply_permutation(shuffled_ids, graph::bfs_order(shuffled_ids));
    for (const auto& [order, g] : {std::pair{"spatial", &natural},
                                   std::pair{"shuffled", &shuffled_ids},
                                   std::pair{"bfs-relabeled", &restored}}) {
        out.instance(*g);
        Engine engine(*g, out.config(out.pick(16, 8)));
        const auto& partition = engine.partition();
        std::uint64_t cut = 0;
        for (VertexId v = 0; v < g->num_vertices(); ++v) {
            for (const VertexId u : g->neighbors(v)) {
                cut += v < u && partition.rank_of(v) != partition.rank_of(u) ? 1 : 0;
            }
        }
        for (const auto a : {Algorithm::kDitric, Algorithm::kCetric}) {
            const auto cell = std::string("order=") + order + " " + algo(a);
            out.report(cell, engine.count(a)).field("cut_edges", cut);
        }
    }
}

/// The message queue's buffer threshold δ: small δ degenerates toward
/// unbuffered sending, large δ toward static buffering.
void ablation_threshold(Output& out) {
    const VertexId n = VertexId{1} << out.pick(13, 10);
    const auto g = rgg(n, 13);
    out.instance(g);
    for (const auto delta : out.pick<Ps>({16, 64, 256, 1024, 4096, 16384, 65536, 262144},
                                         {16, 256, 4096, 65536})) {
        Config config = out.config(out.pick(16, 8));
        config.options.buffer_threshold_words = delta;
        Engine engine(g, config);
        out.report(key("delta", delta), engine.count());
    }
}

/// Section IV-E: CETRIC-AMQ's Bloom false-positive rate against error and
/// volume, next to the DOULION and colorful sampling baselines, which run
/// the exact counter on a sparsified graph.
void approx_amq(Output& out) {
    const auto g = rgg(VertexId{1} << out.pick(12, 10), 7);
    out.instance(g);
    Config config = out.config(out.pick(16, 8));
    config.algorithm = Algorithm::kCetric;
    // One build serves the exact reference and the whole AMQ sweep.
    Engine engine(g, config);
    const auto exact = engine.count();
    const auto exact_count = static_cast<double>(exact.count.triangles);
    const auto rel_err = [&](double estimate) {
        return 100.0 * std::abs(estimate - exact_count) / exact_count;
    };
    out.report("method=exact", exact);
    for (const double fpr : {0.2, 0.1, 0.05, 0.02, 0.01, 0.001}) {
        core::AmqOptions amq = config.amq;
        amq.target_fpr = fpr;
        const auto approx = engine.approx_count(amq);
        out.report("method=amq fpr=" + fmt(fpr), approx)
            .field("rel_err_pct", rel_err(approx.estimated_triangles))
            .field("volume_vs_exact_pct",
                   100.0 * static_cast<double>(approx.count.total_words_sent)
                       / static_cast<double>(exact.count.total_words_sent));
    }
    const auto sampled = [&](const std::string& cell, const CsrGraph& sparse,
                             double scale) {
        out.instance(sparse);
        Engine sparse_engine(sparse, config);
        const auto run = sparse_engine.count();
        const double estimate = static_cast<double>(run.count.triangles) * scale;
        out.report(cell, run)
            .field("estimate", estimate)
            .field("rel_err_pct", rel_err(estimate))
            .field("sparsified_pct", 100.0 * static_cast<double>(sparse.num_edges())
                                         / static_cast<double>(g.num_edges()));
    };
    for (const double keep : {0.5, 0.25, 0.1}) {
        sampled("method=doulion keep=" + fmt(keep), core::sparsify_doulion(g, keep, 99),
                core::doulion_scale(keep));
    }
    for (const std::uint64_t colors : {2, 4, 8}) {
        sampled("method=colorful " + key("colors", colors),
                core::sparsify_colorful(g, colors, 99), core::colorful_scale(colors));
    }
}

// --- golden-core -----------------------------------------------------------

/// The config space at n = 512: generator × p × algorithm × query, one-axis
/// sweeps around a base cell per algorithm, and churn streams.
void golden_core(Output& out) {
    constexpr VertexId n = 512;
    const std::vector<std::pair<std::string, CsrGraph>> instances{
        {"GNM", gen::generate_gnm(n, 8 * n, 11)},
        {"RMAT", gen::generate_rmat(9, 8 * n, 12)},
        {"RGG2D", rgg(n, 13)},
        {"RHG", gen::generate_rhg_local(n, 16.0, 2.8, 14)}};
    for (const auto& [name, g] : instances) {
        out.instance(g);
        for (const std::uint64_t p : {1, 4, 7, 16}) {
            for (const auto a : core::all_algorithms()) {
                Config config = out.config(p);
                config.algorithm = a;
                Engine engine(g, config);
                const auto cell = "gen=" + name + " " + key("p", p) + " " + algo(a);
                const auto sink = core::algorithm_supports_sink(a)
                                      ? Expect::kAnswer
                                      : Expect::kSinkUnsupported;
                const auto answer = Expect::kAnswer;
                out.report(cell + " query=count", engine.count(), answer, &config);
                out.report(cell + " query=lcc", engine.lcc(), sink, &config);
                out.report(cell + " query=enumerate", engine.enumerate(), sink, &config);
                out.report(cell + " query=approx", engine.approx_count(), answer,
                           &config);
            }
        }
    }

    struct Variant {
        std::string name;
        std::function<void(Config&)> apply;
        Expect expect = Expect::kAnswer;
    };
    std::vector<Variant> variants;
    for (const auto kind : seq::all_intersect_kinds()) {
        variants.push_back({"intersect=" + seq::intersect_kind_name(kind),
                            [kind](Config& c) { c.options.intersect = kind; }});
    }
    const auto faults = [](const std::string& spec, fault::RecoveryPolicy recovery) {
        return [spec, recovery](Config& c) {
            c.fault_spec = spec;
            c.recovery = recovery;
        };
    };
    using fault::RecoveryPolicy;
    const std::string drop = "seed=5;drop=0.1";
    variants.insert(
        variants.end(),
        {{"compress", [](Config& c) { c.options.compress_neighborhoods = true; }},
         {"detect-termination", [](Config& c) { c.options.detect_termination = true; }},
         {"partition=uniform",
          [](Config& c) { c.partition = core::PartitionStrategy::kUniformVertices; }},
         {"harden", [](Config& c) { c.harden = true; }},
         {"fault=drop", faults(drop, RecoveryPolicy::kRetry)},
         {"fault=dup", faults("seed=5;dup=0.1", RecoveryPolicy::kRetry)},
         {"fault=bitflip", faults("seed=5;bitflip=0.1", RecoveryPolicy::kRetry)},
         {"fault=drop recovery=fail-fast", faults(drop, RecoveryPolicy::kFailFast),
          Expect::kNetError},
         // No retry budget, so the first lost frame degrades to the estimate.
         {"fault=drop recovery=degrade max-retries=0",
          [&](Config& c) {
              faults(drop, RecoveryPolicy::kDegrade)(c);
              c.max_retries = 0;
          }},
         {"memory-limit=64", [](Config& c) { c.network.memory_limit_words = 64; },
          Expect::kOom}});
    const auto& base = instances[1].second;
    out.instance(base);
    for (const auto a : core::all_algorithms()) {
        for (const auto& variant : variants) {
            Config config = out.config(7);
            config.algorithm = a;
            variant.apply(config);
            Engine engine(base, config);
            // The unbuffered iterator holds no buffer a memory limit could overflow.
            const auto expect = a == Algorithm::kEdgeIteratorUnbuffered
                                        && variant.expect == Expect::kOom
                                    ? Expect::kAnswer
                                    : variant.expect;
            out.report("sweep gen=RMAT p=7 " + algo(a) + " " + variant.name,
                       engine.count(), expect, &config);
        }
    }

    for (const auto i : {3, 1}) {
        const auto& [name, g] = instances[i];
        const auto batches = stream::make_churn_stream(g, 4 * 64, 0.4, 21).batches_of(64);
        for (const std::uint64_t p : {4, 16}) {
            for (const std::uint64_t lcc_indirect : {0, 1, 2, 3}) {
                Config config = out.config(p);
                config.maintain_lcc = (lcc_indirect & 2) != 0;
                config.stream_indirect = (lcc_indirect & 1) != 0;
                Engine engine(g, config);
                auto session = engine.open_stream();
                const auto cell = "stream gen=" + name + " " + key("p", p) + " "
                                  + key("lcc", config.maintain_lcc) + " "
                                  + key("indirect", config.stream_indirect);
                if (session.initial().triangles != Oracle(g).triangles()) {
                    out.fail(cell, "initial count differs from the oracle");
                }
                for (const auto& batch : batches) {
                    const auto stats = session.ingest(batch);
                    const auto batch_cell = cell + " " + key("batch", stats.batch_index);
                    const auto current = session.materialize_global();
                    Oracle oracle(current);
                    if (!stats.error.ok() || stats.triangles != oracle.triangles()) {
                        out.fail(batch_cell, "count differs from a full recount");
                    }
                    auto& json = out.row(batch_cell).batch_fields(stats);
                    if (config.maintain_lcc) {
                        const auto delta = session.delta();
                        const auto coefficients = session.lcc();
                        if (delta != oracle.lcc().delta
                            || !same_bits(coefficients, oracle.lcc().lcc)) {
                            out.fail(batch_cell, "Δ or LCC differs from a recompute");
                        }
                        json.field("delta_hash", digest(delta))
                            .field("lcc_hash", digest(coefficients));
                    }
                    json.field("command", config.to_command_line());
                }
            }
        }
    }
}

// --- streaming -------------------------------------------------------------

/// Incremental maintenance against a full static pass after every batch
/// (Tangwongsan et al.'s comparison): a churn stream on RGG2D under CETRIC,
/// counting alone (lcc=0, against a full recount) and with per-vertex LCC
/// maintained (lcc=1, against a full LCC recompute). The full pass rebuilds
/// the current graph, so it pays the whole static pipeline each time.
void streaming(Output& out) {
    const auto g = rgg(VertexId{1} << out.pick(12, 9), 17);
    const auto batches =
        stream::make_churn_stream(g, out.pick(4096, 256), 0.4, 99)
            .batches_of(out.pick(256, 64));
    for (const bool lcc : {false, true}) {
        Config config = out.config(out.pick(16, 4));
        config.algorithm = Algorithm::kCetric;
        config.maintain_lcc = lcc;
        Engine engine(g, config);
        auto session = engine.open_stream();
        if (session.initial().triangles != Oracle(g).triangles()) {
            out.fail(key("lcc", lcc), "initial count differs from the oracle");
        }
        for (const auto& batch : batches) {
            const auto stats = session.ingest(batch);
            const auto cell = key("lcc", lcc) + " " + key("batch", stats.batch_index);
            const auto current = session.materialize_global();
            out.instance(current);
            Engine recount_engine(current, config);
            const auto full = lcc ? recount_engine.lcc() : recount_engine.count();
            out.check(cell, full, Expect::kAnswer);
            if (!stats.error.ok() || stats.triangles != full.count.triangles) {
                out.fail(cell, "count differs from a full recount");
            }
            const double incremental = stats.seconds + stats.lcc_seconds;
            auto& json =
                out.row(cell)
                    .batch_fields(stats)
                    .field("recount_seconds", full.count.total_time)
                    .field("recount_words", full.count.total_words_sent)
                    .field("speedup",
                           incremental > 0.0 ? full.count.total_time / incremental : 0.0);
            if (lcc) {
                const auto coefficients = session.lcc();
                if (session.delta() != full.delta || !same_bits(coefficients, full.lcc)) {
                    out.fail(cell, "Δ or LCC differs from a full recompute");
                }
                double sum = 0.0;
                for (const double value : coefficients) { sum += value; }
                json.field("avg_lcc", sum / static_cast<double>(coefficients.size()));
            }
        }
    }
}

// --- the driver ------------------------------------------------------------

struct Grid {
    std::string name;
    std::string title;
    void (*run)(Output&);
    std::vector<std::string> columns;  ///< row fields the text table shows
    std::string shape;                 ///< what the paper's figure shows
};

const std::vector<Grid>& grids() {
    static const std::vector<Grid> all{
        {"fig2", "Fig. 2: aggregation on friendster (proxy)", fig2,
         {"algorithm", "total_time", "total_messages_sent"},
         "without buffering time degrades with p; with buffering it keeps scaling"},
        {"fig5", "Fig. 5: weak scaling on four families (m = 16n)", fig5,
         {"oom", "total_time", "max_messages_sent", "max_words_sent", "triangles"},
         "DITRIC*/CETRIC* beat the baselines on RGG2D/RHG, CETRIC cuts RGG2D's "
         "bottleneck volume, TriC-style OOMs at scale, indirection cuts message counts"},
        {"fig6", "Fig. 6: strong scaling on the real-world proxies", fig6,
         {"oom", "total_time", "max_messages_sent", "max_words_sent", "triangles"},
         "DITRIC leads on social proxies (indirect variants at large p), CETRIC on "
         "webbase-2001; TriC-style OOMs on friendster except at the largest p"},
        {"fig7", "Fig. 7: phase breakdown, best DITRIC vs best CETRIC", fig7,
         {"algorithm", "preprocessing_time", "local_time", "contraction_time",
          "global_time", "total_time"},
         "CETRIC halves the global phase on live-journal/webbase for extra local "
         "work; on friendster (no locality) it saves little"},
        {"fig8", "Fig. 8: hybrid DITRIC2 on orkut (proxy)", fig8,
         {"local_time", "total_time", "total_words_sent", "local_speedup"},
         "more threads per rank speed up the local phase and cut volume, but "
         "funneled communication keeps total time flat"},
        {"table1", "Table I: instances (generated proxies vs paper values)", table1,
         {"family", "n", "m", "oriented_wedges", "triangles", "paper_n", "paper_m",
          "paper_wedges", "paper_triangles"},
         "each proxy matches its family's degree and locality at reduced scale"},
        {"ablation-compression", "Ablation: delta-varint record compression (RGG2D)",
         ablation_compression,
         {"algorithm", "total_time", "total_words_sent", "volume_saved_pct"},
         "large savings where IDs have locality, modest ones on shuffled IDs"},
        {"ablation-indirection", "Ablation: grid indirection on traffic patterns",
         ablation_indirection, {"time", "max_msgs_recv", "total_words"},
         "the grid turns an all-to-one hotspot's p(α+β) into O(√p(α+β))+pβ at ~2x "
         "the volume"},
        {"ablation-loadbalance", "Ablation: degree-based load balancing (R-MAT)",
         ablation_loadbalance,
         {"algorithm", "total_time", "redistribution_words", "redistribution_pct"},
         "cost-based splits trim the makespan less than redistribution costs"},
        {"ablation-locality", "Ablation: locality (vertex order) on RGG2D",
         ablation_locality,
         {"algorithm", "total_time", "total_words_sent", "max_words_sent", "cut_edges"},
         "spatial/BFS order keeps the cut small and contraction pays; shuffled does not"},
        {"ablation-threshold", "Ablation: buffer threshold δ (DITRIC, RGG2D)",
         ablation_threshold,
         {"total_time", "total_messages_sent", "max_messages_sent",
          "max_peak_buffer_words"},
         "messages fall and peak memory rises with δ; time flattens at O(|E_i|)"},
        {"approx-amq", "Approximate counting: CETRIC-AMQ vs sampling baselines",
         approx_amq,
         {"triangles", "estimated_triangles", "estimate", "rel_err_pct",
          "total_words_sent", "volume_vs_exact_pct", "sparsified_pct"},
         "AMQ trades error for volume and, unlike sampling, also yields LCC"},
        {"stream", "Streaming: incremental maintenance vs a full pass per batch",
         streaming,
         {"net_inserts", "net_deletes", "triangles", "seconds", "lcc_seconds",
          "recount_seconds", "speedup"},
         "incremental cost per batch tracks the batch's net effect, not |E|; the full "
         "pass pays the whole static pipeline (and LCC's postprocess) every batch"},
        {"golden-core", "Golden core: the config space at n = 512", golden_core,
         {"query", "ok", "triangles", "total_time", "total_words_sent"},
         "every exact result equals the sequential oracle"},
    };
    return all;
}

/// Compares the output with a golden file row by row. On a mismatch, prints
/// grid, cell, field, expected and actual for the first 10 differing rows and
/// writes the full output to golden-<grid>.actual.json in the working
/// directory.
bool matches_golden(const Output& out, const std::string& path) {
    std::ifstream in(path);
    KATRIC_ASSERT_MSG(in.good(), "cannot open golden file " << path);
    std::stringstream file;
    file << in.rdbuf();
    const auto rendered = out.json().to_string();
    const auto expected = rows_of(file.str());
    const auto actual = rows_of(rendered);
    if (file.str() == rendered) {
        std::cout << "golden " << out.grid() << ": " << actual.size()
                  << " rows identical to " << path << '\n';
        return true;
    }
    const auto shown = [](const std::string& v) { return v.empty() ? "(absent)" : v; };
    std::size_t differing = 0;
    for (std::size_t i = 0; i < std::max(expected.size(), actual.size()); ++i) {
        auto want = i < expected.size() ? parse_row(expected[i]) : Fields{};
        auto got = i < actual.size() ? parse_row(actual[i]) : Fields{};
        if (want == got || ++differing > 10) { continue; }
        for (const auto& [k, v] : want) { got.try_emplace(k); }
        std::vector<std::string> fields;
        for (const auto& [k, v] : got) {
            if (want[k] != v) { fields.push_back(k); }
        }
        const auto& cell = want["cell"].empty() ? got["cell"] : want["cell"];
        std::cout << "golden " << out.grid() << ", cell " << cell << ", field "
                  << fields[0] << ": expected " << shown(want[fields[0]]) << ", actual "
                  << shown(got[fields[0]]) << " (" << fields.size()
                  << " fields differ)\n";
    }
    const auto actual_path = "golden-" + out.grid() + ".actual.json";
    out.json().write(actual_path);
    std::cout << "golden " << out.grid() << ": " << differing << " of " << actual.size()
              << " rows differ from " << path << "; full output in " << actual_path
              << ". A change that means to move these values reruns with --update.\n";
    return false;
}

}  // namespace

int main(int argc, char** argv) {
    std::string names;
    for (const auto& grid : grids()) { names += (names.empty() ? "" : ", ") + grid.name; }
    CliParser cli("bench_paper", "the paper's figures, tables and ablations as grids");
    cli.option("grid", "", "grid to run: " + names);
    cli.option("size", "paper",
               "paper (the figures' sizes) | golden (n <= 1024, small p; metrics on)");
    cli.option("check", "", "golden file to compare the grid's rows with, exactly");
    cli.flag("update", "with --check: rewrite the golden file instead of comparing");
    bench::add_engine_options(cli);
    if (!cli.parse(argc, argv)) { return 0; }

    const auto size_name = cli.get_string("size");
    KATRIC_ASSERT_MSG(size_name == "paper" || size_name == "golden",
                      "--size is paper or golden, not '" << size_name << "'");
    const auto size = size_name == "golden" ? Size::kGolden : Size::kPaper;
    const auto selected = cli.get_string("grid");
    const auto check = cli.get_string("check");
    const auto base = bench::engine_config(cli);
    const auto grid = std::find_if(grids().begin(), grids().end(),
                                   [&](const Grid& g) { return g.name == selected; });
    KATRIC_ASSERT_MSG(grid != grids().end(),
                      "unknown grid '" << selected << "'; grids: " << names);
    bench::print_header(grid->title + " [" + size_name + " size]", base);
    Output out(grid->name, size, base);
    grid->run(out);
    std::vector<std::string> headers{"cell"};
    headers.insert(headers.end(), grid->columns.begin(), grid->columns.end());
    Table table(headers);
    for (const auto& row : rows_of(out.json().to_string())) {
        auto fields = parse_row(row);
        table.row();
        for (const auto& column : headers) { table.cell(display(fields[column])); }
    }
    table.print(std::cout);
    std::cout << "\nExpected shape (paper): " << grid->shape << ".\n\n";
    out.json().write(cli.get_string("json"));
    if (cli.get_flag("update")) {
        KATRIC_ASSERT_MSG(!check.empty(), "--update needs --check FILE");
        out.json().write(check);
        std::cout << "golden " << grid->name << ": rewrote " << check << '\n';
        return 0;
    }
    return check.empty() || matches_golden(out, check) ? 0 : 1;
}
