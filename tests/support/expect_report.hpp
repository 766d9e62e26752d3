#pragma once

#include <gtest/gtest.h>

#include <string>

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

}  // namespace katric::test
