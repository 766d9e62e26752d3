// Rank-parallel stream supersteps change host time only. A stream whose
// ranks' start and idle callbacks run concurrently on a worker pool must
// leave exactly what the rank-by-rank stream leaves: every BatchStats field
// (doubles bit for bit), the Δ vector, every rank's counters and every
// superstep's per-rank record. The pool is an explicit 3-helper one, so the
// concurrent path runs whatever the host's core count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "gen/gnm.hpp"
#include "gen/rhg.hpp"
#include "gen/rmat.hpp"
#include "net/metrics.hpp"
#include "net/simulator.hpp"
#include "seq/lcc.hpp"
#include "stream/stream_runner.hpp"
#include "support/expect_report.hpp"
#include "util/assert.hpp"
#include "util/worker_pool.hpp"

namespace katric::stream {
namespace {

util::WorkerPool& three_helpers() {
    static util::WorkerPool pool(3);
    return pool;
}

graph::CsrGraph make_base(const std::string& family) {
    if (family == "gnm") { return gen::generate_gnm(300, 1800, 42); }
    if (family == "rmat") { return gen::generate_rmat(8, 1536, 9); }
    if (family == "rhg") { return gen::generate_rhg_local(300, 12.0, 2.8, 5); }
    KATRIC_THROW("unknown family " << family);
}

struct Cell {
    Rank ranks = 4;
    seq::IntersectKind kernel = seq::IntersectKind::kMerge;
    bool indirect = false;
    bool maintain_lcc = false;
    bool hardened = false;
    /// Small hubs (4), so adaptive cells probe bitmaps and rebuild dirty ones.
    bool small_hubs = false;

    [[nodiscard]] std::string name() const {
        return "p=" + std::to_string(ranks)
               + " kernel=" + seq::intersect_kind_name(kernel)
               + " small_hubs=" + std::to_string(small_hubs)
               + " indirect=" + std::to_string(indirect)
               + " lcc=" + std::to_string(maintain_lcc)
               + " hardened=" + std::to_string(hardened);
    }
};

/// Everything a stream leaves behind.
struct Outcome {
    std::vector<BatchStats> batches;
    std::vector<std::uint64_t> delta;  ///< empty unless the cell maintains LCC
    std::vector<net::RankMetrics> ranks;
    std::vector<net::PhaseRecord> phases;
    /// Distinct host threads that made a find (cells without LCC only) —
    /// more than one proves the ranks really ran concurrently.
    std::size_t finder_threads = 0;
};

/// Across ranks, every message and word sent was received.
void expect_conserved(const net::Simulator& sim, const std::string& what) {
    std::uint64_t messages_sent = 0;
    std::uint64_t messages_received = 0;
    std::uint64_t words_sent = 0;
    std::uint64_t words_received = 0;
    for (const auto& m : sim.rank_metrics()) {
        messages_sent += m.messages_sent;
        messages_received += m.messages_received;
        words_sent += m.words_sent;
        words_received += m.words_received;
    }
    EXPECT_EQ(messages_sent, messages_received) << what;
    EXPECT_EQ(words_sent, words_received) << what;
}

/// Streams `batches` over `base` on one simulator with `pool` attached from
/// the start, so the one-time hub-index superstep runs on it too.
Outcome run(const graph::CsrGraph& base, const std::vector<EdgeBatch>& batches,
            const Cell& cell, util::WorkerPool* pool) {
    StreamRunSpec spec;
    spec.num_ranks = cell.ranks;
    spec.indirect = cell.indirect;
    spec.options.intersect = cell.kernel;
    if (cell.small_hubs) { spec.options.hub_threshold = 4; }
    auto views = distribute_dynamic(base, spec);
    net::Simulator sim(spec.num_ranks, spec.network);
    sim.set_worker_pool(pool);
    sim.record_phase_details(true);
    if (cell.hardened) { sim.harden(net::HardenOptions{}); }

    const auto oracle = seq::compute_lcc_oracle(base);
    std::uint64_t corners = 0;
    for (const auto d : oracle.delta) { corners += d; }
    IncrementalCounter counter(sim, views, spec.options, spec.indirect, corners / 3);
    std::unique_ptr<IncrementalLcc> lcc;
    // Per rank: the threads its finds ran on (each rank writes its own set).
    std::vector<std::set<std::thread::id>> find_threads(spec.num_ranks);
    if (cell.maintain_lcc) {
        lcc = std::make_unique<IncrementalLcc>(sim, views, spec.options, spec.indirect,
                                               oracle.delta);
        lcc->attach(counter);
    } else {
        counter.set_triangle_sink([&](net::RankHandle& self, VertexId, std::int64_t) {
            find_threads[self.rank()].insert(std::this_thread::get_id());
        });
    }

    Outcome out;
    for (const auto& batch : batches) {
        auto stats = counter.apply_batch(batch);
        if (lcc) { stats.lcc_seconds = lcc->finish_batch(); }
        expect_conserved(sim,
                         cell.name() + " batch " + std::to_string(stats.batch_index));
        out.batches.push_back(stats);
    }
    if (lcc) { out.delta = lcc->delta(); }
    out.ranks.assign(sim.rank_metrics().begin(), sim.rank_metrics().end());
    out.phases.assign(sim.phases().begin(), sim.phases().end());
    std::set<std::thread::id> finders;
    for (const auto& threads : find_threads) {
        finders.insert(threads.begin(), threads.end());
    }
    out.finder_threads = finders.size();
    return out;
}

void expect_same_outcome(const Outcome& serial, const Outcome& parallel,
                         const std::string& what) {
    ASSERT_EQ(serial.batches.size(), parallel.batches.size()) << what;
    for (std::size_t i = 0; i < serial.batches.size(); ++i) {
        const auto& a = serial.batches[i];
        const auto& b = parallel.batches[i];
        const std::string where = what + " batch " + std::to_string(i);
        EXPECT_EQ(a.batch_index, b.batch_index) << where;
        EXPECT_EQ(a.events, b.events) << where;
        EXPECT_EQ(a.net_inserts, b.net_inserts) << where;
        EXPECT_EQ(a.net_deletes, b.net_deletes) << where;
        EXPECT_EQ(a.delta, b.delta) << where;
        EXPECT_EQ(a.triangles, b.triangles) << where;
        // Exact, not near: the simulated clocks must not move by one ulp.
        EXPECT_EQ(a.seconds, b.seconds) << where;
        EXPECT_EQ(a.lcc_seconds, b.lcc_seconds) << where;
        EXPECT_EQ(a.messages_sent, b.messages_sent) << where;
        EXPECT_EQ(a.words_sent, b.words_sent) << where;
        EXPECT_EQ(a.error, b.error) << where;
    }
    EXPECT_EQ(serial.delta, parallel.delta) << what;
    test::expect_identical_machine(serial.ranks, parallel.ranks, serial.phases,
                                   parallel.phases, what);
}

class ParallelStreamGrid : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelStreamGrid, SerialAndParallelStreamsAreBitIdentical) {
    const auto base = make_base(GetParam());
    const auto batches = make_churn_stream(base, 384, 0.4, 31).batches_of(64);
    for (const Rank ranks : {1u, 4u, 7u, 16u}) {
        // merge, adaptive, and adaptive with small hubs
        for (const int kernel_cell : {0, 1, 2}) {
            const auto kernel = kernel_cell == 0 ? seq::IntersectKind::kMerge
                                                 : seq::IntersectKind::kAdaptive;
            for (const int flags : {0, 1, 2, 3, 4, 5, 6, 7}) {
                Cell cell{ranks, kernel, (flags & 1) != 0, (flags & 2) != 0,
                          (flags & 4) != 0};
                cell.small_hubs = kernel_cell == 2;
                const auto serial = run(base, batches, cell, nullptr);
                const auto parallel = run(base, batches, cell, &three_helpers());
                expect_same_outcome(serial, parallel, GetParam() + " " + cell.name());
                if (::testing::Test::HasFailure()) { return; }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Families, ParallelStreamGrid,
                         ::testing::Values("gnm", "rmat", "rhg"));

TEST(ParallelStream, LargeBatchesOverlapAndMatch) {
    // Enough work per rank that the helpers join in: the grid above runs
    // tiny ranks the calling thread often finishes alone.
    const auto base = gen::generate_rhg_local(4096, 16.0, 2.8, 11);
    const auto batches = make_churn_stream(base, 4096, 0.4, 13).batches_of(1024);
    std::size_t most_threads = 0;
    for (const Rank ranks : {7u, 16u}) {
        const Cell cell{ranks, seq::IntersectKind::kAdaptive, false, false, false};
        const auto serial = run(base, batches, cell, nullptr);
        const auto parallel = run(base, batches, cell, &three_helpers());
        expect_same_outcome(serial, parallel, cell.name());
        EXPECT_EQ(serial.finder_threads, 1u) << cell.name();
        most_threads = std::max(most_threads, parallel.finder_threads);
    }
    EXPECT_GT(most_threads, 1u) << "no stream ran its ranks on more than one thread";
}

}  // namespace
}  // namespace katric::stream
