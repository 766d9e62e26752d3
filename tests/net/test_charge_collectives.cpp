// charge_all_to_all — the size-only replay behind a charged engine query's
// preprocessing (core::apply_preprocessing). The contract: charging the machine
// with payload SIZES must be metric-identical to running the real
// all_to_all with payloads of those sizes — same simulated time, same
// per-rank message/word counters, same phase records — in both dense and
// sparse modes. If the two paths ever diverge, a query's replayed
// preprocessing charges stop matching a real build's.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/collectives.hpp"
#include "net/metrics.hpp"

namespace katric::net {
namespace {

/// Payload-size matrix of a deterministic skewed exchange: rank r sends
/// (r*7 + d*3) % 11 words to destination d, with a few zero entries so the
/// sparse mode has messages to skip.
std::vector<std::vector<std::uint64_t>> skewed_words(Rank p) {
    std::vector<std::vector<std::uint64_t>> words(p, std::vector<std::uint64_t>(p, 0));
    for (Rank r = 0; r < p; ++r) {
        for (Rank d = 0; d < p; ++d) { words[r][d] = (r * 7ULL + d * 3ULL) % 11ULL; }
    }
    return words;
}

std::vector<std::vector<WordVec>> materialize(
    const std::vector<std::vector<std::uint64_t>>& words) {
    std::vector<std::vector<WordVec>> sends(words.size());
    for (std::size_t r = 0; r < words.size(); ++r) {
        sends[r].resize(words[r].size());
        for (std::size_t d = 0; d < words[r].size(); ++d) {
            sends[r][d].assign(words[r][d], 0xBEEF);
        }
    }
    return sends;
}

void expect_identical_machines(const Simulator& real, const Simulator& charged,
                               const std::string& what) {
    EXPECT_EQ(real.time(), charged.time()) << what;
    ASSERT_EQ(real.rank_metrics().size(), charged.rank_metrics().size()) << what;
    for (std::size_t r = 0; r < real.rank_metrics().size(); ++r) {
        const auto& a = real.rank_metrics()[r];
        const auto& b = charged.rank_metrics()[r];
        EXPECT_EQ(a.messages_sent, b.messages_sent) << what << " rank " << r;
        EXPECT_EQ(a.messages_received, b.messages_received) << what << " rank " << r;
        EXPECT_EQ(a.words_sent, b.words_sent) << what << " rank " << r;
        EXPECT_EQ(a.words_received, b.words_received) << what << " rank " << r;
        EXPECT_EQ(a.compute_ops, b.compute_ops) << what << " rank " << r;
    }
    ASSERT_EQ(real.phases().size(), charged.phases().size()) << what;
    for (std::size_t i = 0; i < real.phases().size(); ++i) {
        EXPECT_EQ(real.phases()[i].name, charged.phases()[i].name) << what;
        EXPECT_EQ(real.phases()[i].start_time, charged.phases()[i].start_time) << what;
        EXPECT_EQ(real.phases()[i].end_time, charged.phases()[i].end_time) << what;
    }
}

class ChargeAllToAllTest : public ::testing::TestWithParam<std::tuple<Rank, bool>> {};

TEST_P(ChargeAllToAllTest, MetricIdenticalToTheRealExchange) {
    const auto [p, sparse] = GetParam();
    const auto words = skewed_words(p);

    Simulator real(p, NetworkConfig::supermuc_like());
    (void)all_to_all(real, materialize(words), sparse, "ghost_degrees");

    Simulator charged(p, NetworkConfig::supermuc_like());
    charge_all_to_all(charged, words, sparse, "ghost_degrees");

    expect_identical_machines(real, charged,
                              "p=" + std::to_string(p)
                                  + (sparse ? " sparse" : " dense"));
}

INSTANTIATE_TEST_SUITE_P(RankCountsAndModes, ChargeAllToAllTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 8, 16),
                                            ::testing::Bool()));

TEST(ChargeAllToAll, BackToBackChargesAccumulateLikeRepeatedExchanges) {
    // An engine replays the charge once per query on the query's own
    // simulator — but the charge must also compose: two charges on one
    // machine equal two real exchanges on one machine.
    const Rank p = 4;
    const auto words = skewed_words(p);

    Simulator real(p, NetworkConfig{});
    (void)all_to_all(real, materialize(words), /*sparse=*/false, "a");
    (void)all_to_all(real, materialize(words), /*sparse=*/true, "b");

    Simulator charged(p, NetworkConfig{});
    charge_all_to_all(charged, words, /*sparse=*/false, "a");
    charge_all_to_all(charged, words, /*sparse=*/true, "b");

    expect_identical_machines(real, charged, "two rounds");
}

TEST(ChargeAllToAll, AllZeroSparseChargesNothing) {
    const Rank p = 4;
    const std::vector<std::vector<std::uint64_t>> words(
        p, std::vector<std::uint64_t>(p, 0));
    Simulator charged(p, NetworkConfig{});
    charge_all_to_all(charged, words, /*sparse=*/true, "empty");
    EXPECT_EQ(total_messages_sent(charged.rank_metrics()), 0u);
    EXPECT_EQ(total_words_sent(charged.rank_metrics()), 0u);
}

}  // namespace
}  // namespace katric::net
