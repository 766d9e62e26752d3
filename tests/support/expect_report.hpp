#pragma once

#include <gtest/gtest.h>

#include <span>
#include <string>

#include "net/metrics.hpp"
#include "report.hpp"
#include "support/expect_count.hpp"

namespace katric::test {

/// Field-by-field Report equality — the serving analogue of
/// expect_identical_counts, covering every payload a query kind fills.
inline void expect_identical_reports(const Report& a, const Report& b,
                                     const std::string& what) {
    EXPECT_EQ(a.query, b.query) << what;
    EXPECT_EQ(a.algorithm, b.algorithm) << what;
    EXPECT_EQ(a.error, b.error) << what;
    EXPECT_EQ(a.error.message, b.error.message) << what;
    expect_identical_counts(a.count, b.count, what);
    EXPECT_EQ(a.total_compute_ops, b.total_compute_ops) << what;
    EXPECT_EQ(a.max_compute_ops, b.max_compute_ops) << what;
    EXPECT_EQ(a.reused_preprocessing, b.reused_preprocessing) << what;
    ASSERT_EQ(a.phases.size(), b.phases.size()) << what;
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].name, b.phases[i].name) << what;
        EXPECT_EQ(a.phases[i].seconds, b.phases[i].seconds) << what;
        EXPECT_EQ(a.phases[i].supersteps, b.phases[i].supersteps) << what;
        EXPECT_EQ(a.phases[i].messages_sent, b.phases[i].messages_sent) << what;
        EXPECT_EQ(a.phases[i].words_sent, b.phases[i].words_sent) << what;
    }
    EXPECT_EQ(a.delta, b.delta) << what;
    EXPECT_EQ(a.lcc, b.lcc) << what;
    EXPECT_EQ(a.triangles.size(), b.triangles.size()) << what;
    EXPECT_TRUE(a.triangles == b.triangles) << what;
    EXPECT_EQ(a.found_per_rank, b.found_per_rank) << what;
    EXPECT_EQ(a.estimated_triangles, b.estimated_triangles) << what;
    EXPECT_EQ(a.exact_type12, b.exact_type12) << what;
    EXPECT_EQ(a.estimated_type3, b.estimated_type3) << what;
    EXPECT_EQ(a.postprocess_time, b.postprocess_time) << what;
}

inline void expect_identical_rank_metrics(const net::RankMetrics& a,
                                          const net::RankMetrics& b,
                                          const std::string& what) {
    EXPECT_EQ(a.messages_sent, b.messages_sent) << what;
    EXPECT_EQ(a.messages_received, b.messages_received) << what;
    EXPECT_EQ(a.words_sent, b.words_sent) << what;
    EXPECT_EQ(a.words_received, b.words_received) << what;
    EXPECT_EQ(a.compute_ops, b.compute_ops) << what;
    EXPECT_EQ(a.peak_buffered_words, b.peak_buffered_words) << what;
}

/// The machine state a Report summarizes: every rank's counters and every
/// superstep's record, per-rank clocks and metric deltas included.
inline void expect_identical_machine(std::span<const net::RankMetrics> a_ranks,
                                     std::span<const net::RankMetrics> b_ranks,
                                     std::span<const net::PhaseRecord> a_phases,
                                     std::span<const net::PhaseRecord> b_phases,
                                     const std::string& what) {
    ASSERT_EQ(a_ranks.size(), b_ranks.size()) << what;
    for (std::size_t r = 0; r < a_ranks.size(); ++r) {
        expect_identical_rank_metrics(a_ranks[r], b_ranks[r],
                                      what + " rank " + std::to_string(r));
    }
    ASSERT_EQ(a_phases.size(), b_phases.size()) << what;
    for (std::size_t i = 0; i < a_phases.size(); ++i) {
        const auto& a = a_phases[i];
        const auto& b = b_phases[i];
        const std::string where = what + " phase " + std::to_string(i) + " " + a.name;
        EXPECT_EQ(a.name, b.name) << where;
        EXPECT_EQ(a.start_time, b.start_time) << where;
        EXPECT_EQ(a.end_time, b.end_time) << where;
        EXPECT_EQ(a.rank_busy_end, b.rank_busy_end) << where;
        ASSERT_EQ(a.rank_delta.size(), b.rank_delta.size()) << where;
        for (std::size_t r = 0; r < a.rank_delta.size(); ++r) {
            expect_identical_rank_metrics(a.rank_delta[r], b.rank_delta[r],
                                          where + " rank " + std::to_string(r));
        }
    }
}

}  // namespace katric::test
