#pragma once

#include <gtest/gtest.h>

#include <string>

#include "core/algorithm.hpp"

namespace katric::test {

/// Field-by-field equality of two CountResults — the bit-identical
/// reuse-equivalence check shared by the Engine equivalence suites.
/// Extend this ONE helper when CountResult grows a metric.
inline void expect_identical_counts(const core::CountResult& a,
                                    const core::CountResult& b,
                                    const std::string& what) {
    EXPECT_EQ(a.triangles, b.triangles) << what;
    EXPECT_EQ(a.oom, b.oom) << what;
    EXPECT_EQ(a.error, b.error) << what;
    EXPECT_EQ(a.total_time, b.total_time) << what;
    EXPECT_EQ(a.preprocessing_time, b.preprocessing_time) << what;
    EXPECT_EQ(a.local_time, b.local_time) << what;
    EXPECT_EQ(a.contraction_time, b.contraction_time) << what;
    EXPECT_EQ(a.global_time, b.global_time) << what;
    EXPECT_EQ(a.reduce_time, b.reduce_time) << what;
    EXPECT_EQ(a.max_messages_sent, b.max_messages_sent) << what;
    EXPECT_EQ(a.max_words_sent, b.max_words_sent) << what;
    EXPECT_EQ(a.total_messages_sent, b.total_messages_sent) << what;
    EXPECT_EQ(a.total_words_sent, b.total_words_sent) << what;
    EXPECT_EQ(a.max_peak_buffer_words, b.max_peak_buffer_words) << what;
    EXPECT_EQ(a.local_phase_triangles, b.local_phase_triangles) << what;
    EXPECT_EQ(a.global_phase_triangles, b.global_phase_triangles) << what;
}

}  // namespace katric::test
