// FaultInjector + the hardened Simulator channel. The load-bearing
// properties: every message-fault class is either absorbed transparently
// (payloads delivered bit-exact, exactly once) or surfaces as a typed
// FaultError — and the whole schedule is a pure function of the plan's seed,
// so identical seeds give identical stats, outcomes, and simulated clocks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "error.hpp"
#include "fault/injector.hpp"
#include "net/collectives.hpp"
#include "net/simulator.hpp"

namespace katric {
namespace {

using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultStats;
using net::HardenOptions;
using net::NetworkConfig;
using net::Rank;
using net::Simulator;
using net::WordVec;

/// One (src, dest, payload) delivery, sortable so completeness checks are
/// order-independent (reorder faults legitimately permute arrival order).
using Delivery = std::tuple<Rank, Rank, std::vector<std::uint64_t>>;

/// Runs one all-to-all phase where every rank sends a recognizable payload
/// to every other rank; returns the sorted deliveries.
std::vector<Delivery> exchange_phase(Simulator& sim) {
    std::vector<Delivery> deliveries;
    sim.run_phase(
        "exchange",
        [](net::RankHandle& self) {
            for (Rank dest = 0; dest < self.size(); ++dest) {
                if (dest == self.rank()) { continue; }
                self.send(dest, WordVec{static_cast<std::uint64_t>(self.rank()) * 100
                                            + static_cast<std::uint64_t>(dest),
                                        0xC0FFEEu});
            }
        },
        [&](net::RankHandle& self, Rank src, int /*tag*/,
            std::span<const std::uint64_t> payload) {
            deliveries.emplace_back(src, self.rank(),
                                    std::vector<std::uint64_t>(payload.begin(),
                                                               payload.end()));
        });
    std::sort(deliveries.begin(), deliveries.end());
    return deliveries;
}

/// The deliveries a clean all-to-all must produce on p ranks.
std::vector<Delivery> expected_exchange(Rank p) {
    std::vector<Delivery> expected;
    for (Rank src = 0; src < p; ++src) {
        for (Rank dest = 0; dest < p; ++dest) {
            if (src == dest) { continue; }
            expected.emplace_back(
                src, dest,
                std::vector<std::uint64_t>{static_cast<std::uint64_t>(src) * 100
                                               + static_cast<std::uint64_t>(dest),
                                           0xC0FFEEu});
        }
    }
    std::sort(expected.begin(), expected.end());
    return expected;
}

TEST(FaultInjector, DecisionsAreDeterministicPerSeedAndRerollPerAttempt) {
    const auto plan = FaultPlan::parse("seed=11;drop=0.2;bitflip=0.2;reorder=0.2");
    const FaultInjector a(plan);
    const FaultInjector b(plan);
    bool attempts_differ = false;
    for (std::uint64_t frame = 1; frame <= 2000; ++frame) {
        for (std::uint32_t attempt = 1; attempt <= 3; ++attempt) {
            const auto da = a.decide(frame, attempt);
            const auto db = b.decide(frame, attempt);
            ASSERT_EQ(da.has_value(), db.has_value());
            if (da.has_value()) {
                EXPECT_EQ(da->kind, db->kind);
                EXPECT_EQ(da->detail, db->detail);
            }
            if (attempt > 1) {
                const auto first = a.decide(frame, 1);
                if (da.has_value() != first.has_value()
                    || (da.has_value() && da->kind != first->kind)) {
                    attempts_differ = true;
                }
            }
        }
    }
    // The attempt participates in the hash: retransmissions re-roll instead
    // of being doomed to the original fault.
    EXPECT_TRUE(attempts_differ);
}

TEST(FaultInjector, EmptyPlanNeverInjects) {
    const FaultInjector injector(FaultPlan{});
    for (std::uint64_t frame = 1; frame <= 500; ++frame) {
        EXPECT_EQ(injector.decide(frame, 1), std::nullopt);
    }
    EXPECT_FALSE(injector.has_rank_faults());
}

TEST(FaultInjector, ProbabilitiesApproximateTheirRates) {
    const FaultInjector injector(FaultPlan::parse("seed=3;drop=0.3;dup=0.2"));
    std::uint64_t drops = 0;
    std::uint64_t dups = 0;
    const std::uint64_t n = 20000;
    for (std::uint64_t frame = 1; frame <= n; ++frame) {
        if (const auto d = injector.decide(frame, 1)) {
            drops += d->kind == FaultKind::kDrop;
            dups += d->kind == FaultKind::kDuplicate;
        }
    }
    EXPECT_NEAR(static_cast<double>(drops) / static_cast<double>(n), 0.3, 0.02);
    EXPECT_NEAR(static_cast<double>(dups) / static_cast<double>(n), 0.2, 0.02);
}

TEST(FaultInjector, CrashIsStickyStallIsExact) {
    const FaultInjector injector(FaultPlan::parse("crash=1@3;stall=2@5"));
    EXPECT_FALSE(injector.crashed(1, 2));
    EXPECT_TRUE(injector.crashed(1, 3));
    EXPECT_TRUE(injector.crashed(1, 9));  // crashed ranks stay crashed
    EXPECT_FALSE(injector.crashed(0, 9));
    EXPECT_FALSE(injector.stalls(2, 4));
    EXPECT_TRUE(injector.stalls(2, 5));
    EXPECT_FALSE(injector.stalls(2, 6));  // stalls fire once
    EXPECT_TRUE(injector.has_rank_faults());
}

TEST(HardenedChannel, FramingAloneDeliversBitExactWithHeaderOverhead) {
    const Rank p = 4;
    Simulator plain(p, NetworkConfig{});
    const auto baseline = exchange_phase(plain);

    Simulator sim(p, NetworkConfig{});
    FaultStats stats;
    HardenOptions harden;
    harden.stats = &stats;
    sim.harden(harden);
    EXPECT_TRUE(sim.hardened());

    const auto deliveries = exchange_phase(sim);
    EXPECT_EQ(deliveries, baseline);
    EXPECT_EQ(deliveries, expected_exchange(p));
    EXPECT_EQ(stats.frames_sent, static_cast<std::uint64_t>(p) * (p - 1));
    EXPECT_EQ(stats.corrupt_detected, 0u);
    EXPECT_EQ(stats.retransmits, 0u);
    EXPECT_EQ(stats.injected_total(), 0u);
    // The 3 header words are charged on the wire: hardened word metrics
    // exceed the plain run's by exactly kFrameHeaderWords per frame.
    EXPECT_EQ(sim.rank_metrics()[0].words_sent,
              plain.rank_metrics()[0].words_sent + 3 * (p - 1));
}

TEST(HardenedChannel, DropsAreRecoveredByTheQuiescenceSweep) {
    const Rank p = 4;
    Simulator sim(p, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("seed=5;drop=0.4"));
    FaultStats stats;
    HardenOptions harden;
    harden.injector = &injector;
    harden.stats = &stats;
    harden.max_retries = 16;
    sim.harden(harden);

    EXPECT_EQ(exchange_phase(sim), expected_exchange(p));
    EXPECT_GT(stats.injected_drop, 0u);
    EXPECT_GE(stats.retransmits, stats.injected_drop);
    EXPECT_EQ(stats.duplicates_suppressed, 0u);
}

/// One phase whose only traffic originates in the idle round — the path the
/// buffered-queue flushes and termination tokens take. A frame dropped there
/// empties the event queue with the frame still in flight, so quiescence
/// detection must consult in-flight frames, not just the queue.
std::vector<Delivery> idle_flush_phase(Simulator& sim, Rank p) {
    std::vector<Delivery> deliveries;
    std::vector<char> flushed(static_cast<std::size_t>(p), 0);
    sim.run_phase(
        "idle-flush", nullptr,
        [&](net::RankHandle& self, Rank src, int /*tag*/,
            std::span<const std::uint64_t> payload) {
            deliveries.emplace_back(src, self.rank(),
                                    std::vector<std::uint64_t>(payload.begin(),
                                                               payload.end()));
        },
        [&](net::RankHandle& self) {
            auto& sent = flushed[static_cast<std::size_t>(self.rank())];
            if (sent) { return; }
            sent = true;
            self.send((self.rank() + 1) % self.size(),
                      WordVec{static_cast<std::uint64_t>(self.rank()), 0xF1u});
        });
    std::sort(deliveries.begin(), deliveries.end());
    return deliveries;
}

TEST(HardenedChannel, IdleRoundDropsAreRecoveredNotSilentlyLost) {
    const Rank p = 4;
    Simulator sim(p, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("seed=5;drop=0.5"));
    FaultStats stats;
    HardenOptions harden;
    harden.injector = &injector;
    harden.stats = &stats;
    harden.max_retries = 32;
    sim.harden(harden);

    const auto deliveries = idle_flush_phase(sim, p);
    ASSERT_EQ(deliveries.size(), static_cast<std::size_t>(p));
    for (Rank src = 0; src < p; ++src) {
        EXPECT_EQ(deliveries[static_cast<std::size_t>(src)],
                  Delivery(src, (src + 1) % p,
                           {static_cast<std::uint64_t>(src), 0xF1u}));
    }
    // The seed must actually drop an idle-round frame for this to regress.
    EXPECT_GT(stats.injected_drop, 0u);
    EXPECT_GE(stats.retransmits, stats.injected_drop);
}

TEST(HardenedChannel, IdleRoundCertainDropSurfacesAsTimeoutNotSilence) {
    Simulator sim(2, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("seed=1;drop=1.0"));
    HardenOptions harden;
    harden.injector = &injector;
    harden.max_retries = 3;
    sim.harden(harden);

    // Before quiescence consulted in-flight frames, this returned "success"
    // with zero deliveries — the silently-lost-frame bug.
    EXPECT_THROW(idle_flush_phase(sim, 2), net::FaultError);
}

TEST(HardenedChannel, CertainDropExhaustsRetriesAsTimeout) {
    Simulator sim(2, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("seed=1;drop=1.0"));
    HardenOptions harden;
    harden.injector = &injector;
    harden.max_retries = 3;
    sim.harden(harden);

    try {
        exchange_phase(sim);
        FAIL() << "a 100% drop rate must exhaust the retry budget";
    } catch (const net::FaultError& e) {
        EXPECT_EQ(e.code(), NetError::kTimeout);
        EXPECT_NE(std::string(e.what()).find("retry budget"), std::string::npos);
    }
}

TEST(HardenedChannel, DuplicatesAreSuppressedExactlyOnceEach) {
    const Rank p = 3;
    Simulator sim(p, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("seed=2;dup=1.0"));
    FaultStats stats;
    HardenOptions harden;
    harden.injector = &injector;
    harden.stats = &stats;
    sim.harden(harden);

    EXPECT_EQ(exchange_phase(sim), expected_exchange(p));
    const auto frames = static_cast<std::uint64_t>(p) * (p - 1);
    EXPECT_EQ(stats.injected_duplicate, frames);
    EXPECT_EQ(stats.duplicates_suppressed, frames);
    EXPECT_EQ(stats.retransmits, 0u);
}

TEST(HardenedChannel, BitFlipsAreDetectedAndRetransmittedToRecovery) {
    const Rank p = 4;
    Simulator sim(p, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("seed=9;bitflip=0.5"));
    FaultStats stats;
    HardenOptions harden;
    harden.injector = &injector;
    harden.stats = &stats;
    harden.max_retries = 32;
    sim.harden(harden);

    EXPECT_EQ(exchange_phase(sim), expected_exchange(p));
    EXPECT_GT(stats.injected_bitflip, 0u);
    EXPECT_EQ(stats.corrupt_detected, stats.injected_bitflip);
    EXPECT_GE(stats.retransmits, stats.corrupt_detected);
}

TEST(HardenedChannel, CertainCorruptionFailsFastAsCorrupt) {
    Simulator sim(2, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("seed=4;bitflip=1.0"));
    HardenOptions harden;
    harden.injector = &injector;
    harden.max_retries = 0;  // fail-fast: surface the first detection
    sim.harden(harden);

    try {
        exchange_phase(sim);
        FAIL() << "an always-corrupting link must surface kCorrupt under fail-fast";
    } catch (const net::FaultError& e) {
        EXPECT_EQ(e.code(), NetError::kCorrupt);
    }
}

TEST(HardenedChannel, TruncationIsCaughtByTheLengthWord) {
    const Rank p = 3;
    Simulator sim(p, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("seed=6;truncate=0.6"));
    FaultStats stats;
    HardenOptions harden;
    harden.injector = &injector;
    harden.stats = &stats;
    harden.max_retries = 32;
    sim.harden(harden);

    EXPECT_EQ(exchange_phase(sim), expected_exchange(p));
    EXPECT_GT(stats.injected_truncate, 0u);
    EXPECT_EQ(stats.corrupt_detected, stats.injected_truncate);
}

TEST(HardenedChannel, ReorderAndDelayPerturbTimingNotContent) {
    const Rank p = 4;
    Simulator sim(p, NetworkConfig{});
    const FaultInjector injector(
        FaultPlan::parse("seed=8;reorder=0.5;delay=0.5;delay-secs=0.125"));
    FaultStats stats;
    HardenOptions harden;
    harden.injector = &injector;
    harden.stats = &stats;
    sim.harden(harden);

    EXPECT_EQ(exchange_phase(sim), expected_exchange(p));
    EXPECT_GT(stats.injected_reorder + stats.injected_delay, 0u);
    EXPECT_EQ(stats.retransmits, 0u);  // timing faults need no recovery
    if (stats.injected_delay > 0) {
        // A delayed arrival stretches the phase by at least the delay.
        EXPECT_GE(sim.time(), 0.125);
    }
}

TEST(HardenedChannel, CrashSurfacesAsRankLostAtTheBoundary) {
    Simulator sim(4, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("crash=2@0"));
    HardenOptions harden;
    harden.injector = &injector;
    sim.harden(harden);

    try {
        exchange_phase(sim);
        FAIL() << "a crashed rank must surface kRankLost";
    } catch (const net::FaultError& e) {
        EXPECT_EQ(e.code(), NetError::kRankLost);
        EXPECT_NE(std::string(e.what()).find("rank 2"), std::string::npos);
    }
}

TEST(HardenedChannel, StallStretchesItsSuperstep) {
    Simulator sim(2, NetworkConfig{});
    const FaultInjector injector(FaultPlan::parse("stall=0@0;stall-secs=0.5"));
    FaultStats stats;
    HardenOptions harden;
    harden.injector = &injector;
    harden.stats = &stats;
    sim.harden(harden);

    EXPECT_EQ(exchange_phase(sim), expected_exchange(2));
    EXPECT_EQ(stats.injected_stall, 1u);
    EXPECT_GE(sim.time(), 0.5);
}

TEST(HardenedChannel, PhaseTimeoutSurfacesAsTimeout) {
    Simulator sim(2, NetworkConfig{});
    HardenOptions harden;
    harden.phase_timeout = 1e-15;  // below even one α, so any phase trips it
    sim.harden(harden);

    try {
        exchange_phase(sim);
        FAIL() << "any traffic must overshoot a sub-α phase timeout";
    } catch (const net::FaultError& e) {
        EXPECT_EQ(e.code(), NetError::kTimeout);
        EXPECT_NE(std::string(e.what()).find("phase-timeout"), std::string::npos);
    }
}

TEST(HardenedChannel, CancelledTokenStopsAtTheNextBoundary) {
    Simulator sim(2, NetworkConfig{});
    fault::CancelToken token;
    HardenOptions harden;
    harden.frame = false;  // boundary checks alone need no message framing
    harden.cancel = &token;
    sim.harden(harden);

    EXPECT_EQ(exchange_phase(sim), expected_exchange(2));  // not yet expired
    token.cancel();
    EXPECT_THROW(exchange_phase(sim), net::CancelledError);
}

/// Per-(src, dest) payloads of varying length, some of them empty — the
/// shape of the dense ghost-degree exchange, where every PE sends p−1
/// messages whether or not it has anything to say.
std::vector<std::vector<WordVec>> dense_sends(Rank p) {
    std::vector<std::vector<WordVec>> sends(p, std::vector<WordVec>(p));
    for (Rank src = 0; src < p; ++src) {
        for (Rank dest = 0; dest < p; ++dest) {
            for (Rank i = 0; i < (src + 2 * dest) % 4; ++i) {
                sends[src][dest].push_back(1000u * src + 10u * dest + i);
            }
        }
    }
    return sends;
}

TEST(HardenedChannel, DenseAllToAllDeliversBitExactOrFailsTyped) {
    // net::all_to_all is a library collective in its own right; engine
    // queries replay the preprocessing exchange by size only, so the dense
    // collective is exercised under injection here, directly.
    const Rank p = 5;
    Simulator plain(p, NetworkConfig{});
    const auto expected =
        net::all_to_all(plain, dense_sends(p), /*sparse=*/false, "exchange");
    std::size_t delivered = 0;
    std::size_t failed = 0;
    for (const char* spec : {"seed=21;drop=0.3", "seed=22;dup=0.5", "seed=23;bitflip=0.3",
                             "seed=24;drop=0.2;dup=0.2;bitflip=0.2"}) {
        for (const std::uint32_t retries : {0u, 32u}) {
            SCOPED_TRACE(std::string(spec) + " retries=" + std::to_string(retries));
            Simulator sim(p, NetworkConfig{});
            const FaultInjector injector(FaultPlan::parse(spec));
            FaultStats stats;
            HardenOptions harden;
            harden.injector = &injector;
            harden.stats = &stats;
            harden.max_retries = retries;
            sim.harden(harden);
            try {
                const auto received =
                    net::all_to_all(sim, dense_sends(p), /*sparse=*/false, "exchange");
                EXPECT_EQ(received, expected);
                ++delivered;
            } catch (const net::FaultError& e) {
                EXPECT_EQ(make_error(e.code(), e.what()).domain, Error::Domain::kNet);
                EXPECT_NE(e.code(), NetError::kNone);
                ++failed;
            }
            EXPECT_GT(stats.injected_total(), 0u);
        }
    }
    // Both outcomes occur: a generous retry budget recovers, fail-fast on a
    // dropping or corrupting link does not.
    EXPECT_GT(delivered, 0u);
    EXPECT_GT(failed, 0u);
}

TEST(HardenedChannel, IdenticalSeedsGiveIdenticalSchedulesAndClocks) {
    const auto run = [](std::uint64_t seed) {
        Simulator sim(4, NetworkConfig{});
        const FaultInjector injector(FaultPlan(
            FaultPlan::parse("seed=" + std::to_string(seed)
                             + ";drop=0.2;dup=0.2;bitflip=0.2;truncate=0.1")));
        FaultStats stats;
        HardenOptions harden;
        harden.injector = &injector;
        harden.stats = &stats;
        harden.max_retries = 64;
        sim.harden(harden);
        const auto deliveries = exchange_phase(sim);
        return std::tuple{deliveries, stats, sim.time()};
    };

    const auto first = run(1234);
    const auto second = run(1234);
    EXPECT_EQ(std::get<0>(first), std::get<0>(second));
    EXPECT_TRUE(std::get<1>(first) == std::get<1>(second));
    EXPECT_EQ(std::get<2>(first), std::get<2>(second));
    EXPECT_GT(std::get<1>(first).injected_total(), 0u);
}

}  // namespace
}  // namespace katric
