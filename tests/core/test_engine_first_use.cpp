// Engine first use under contention: several threads issue the *first*
// queries on a fresh Engine at once — mixed query kinds and two hub
// thresholds — so the one preprocessing build and the hub-index cache fill
// race each other. Every report must equal the same query run sequentially
// bit for bit (no report may depend on which query triggered a build), and
// the engine must have built once plus once per extra hub threshold. Runs
// under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "engine.hpp"
#include "gen/rmat.hpp"
#include "support/expect_report.hpp"

namespace katric {
namespace {

using core::Algorithm;

struct Request {
    Query query;
    Algorithm algorithm;
    graph::Degree hub_threshold;
};

/// Every query kind, the baselines included, at the configured hub
/// threshold (0 = automatic) and at one extra threshold.
std::vector<Request> first_requests() {
    std::vector<Request> requests;
    for (const graph::Degree threshold : {0u, 6u}) {
        for (const auto algorithm : {Algorithm::kDitric, Algorithm::kCetric,
                                     Algorithm::kCetric2, Algorithm::kTricStyle,
                                     Algorithm::kHavoqgtStyle}) {
            requests.push_back({Query::kCount, algorithm, threshold});
        }
        requests.push_back({Query::kLcc, Algorithm::kCetric, threshold});
        requests.push_back({Query::kEnumerate, Algorithm::kDitric, threshold});
        requests.push_back({Query::kApprox, Algorithm::kCetric, threshold});
    }
    return requests;
}

Report run(Engine& engine, const Request& request) {
    QueryOptions query;
    query.algorithm = request.algorithm;
    query.options = engine.config().options;
    query.options->hub_threshold = request.hub_threshold;
    switch (request.query) {
        case Query::kLcc: return engine.lcc(query);
        case Query::kEnumerate: return engine.enumerate(query);
        case Query::kApprox: return engine.approx_count(query);
        default: return engine.count(query);
    }
}

TEST(EngineFirstUse, ConcurrentFirstQueriesMatchSequentialBitForBit) {
    const auto g = gen::generate_rmat(8, 2048, 11);
    const auto requests = first_requests();
    for (const bool charge : {true, false}) {
        Config config;
        config.num_ranks = 4;
        config.options.intersect = seq::IntersectKind::kAdaptive;
        config.charge_preprocessing = charge;

        Engine sequential(g, config);
        std::vector<Report> expected;
        expected.reserve(requests.size());
        for (const auto& request : requests) {
            expected.push_back(run(sequential, request));
        }
        EXPECT_EQ(sequential.preprocess_builds(), 2u);

        // Several fresh engines: each round races the first build anew.
        for (int round = 0; round < 3; ++round) {
            Engine engine(g, config);
            std::vector<Report> reports(requests.size());
            std::latch start(static_cast<std::ptrdiff_t>(requests.size()));
            std::vector<std::thread> threads;
            threads.reserve(requests.size());
            for (std::size_t i = 0; i < requests.size(); ++i) {
                threads.emplace_back([&, i] {
                    start.arrive_and_wait();
                    reports[i] = run(engine, requests[i]);
                });
            }
            for (auto& thread : threads) { thread.join(); }

            for (std::size_t i = 0; i < requests.size(); ++i) {
                test::expect_identical_reports(
                    reports[i], expected[i],
                    "request " + std::to_string(i) + " round " + std::to_string(round)
                        + (charge ? " charged" : " skipped"));
            }
            // One build, plus the hub indices of the one extra threshold.
            EXPECT_EQ(engine.preprocess_builds(), 2u);
            EXPECT_EQ(engine.queries_run(), requests.size());
        }
    }
}

}  // namespace
}  // namespace katric
