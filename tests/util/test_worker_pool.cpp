#include "util/worker_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <cstddef>
#include <thread>
#include <vector>

namespace katric::util {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
    WorkerPool pool(3);
    for (const std::size_t count : {0u, 1u, 2u, 4u, 16u, 1000u}) {
        std::vector<std::atomic<int>> calls(count);
        pool.run(count, [&](std::size_t i) { calls[i].fetch_add(1); });
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(calls[i].load(), 1) << "count " << count << ", index " << i;
        }
    }
}

TEST(WorkerPool, NoHelpersRunsInlineOnTheCaller) {
    WorkerPool pool(0);
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    pool.run(8, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(WorkerPool, TwoCallersRunAtOnce) {
    // Each caller's loop waits until both loops are inside a task at the
    // same time: that only finishes if the two run() calls overlap.
    WorkerPool pool(2);
    std::barrier<> both(2);
    std::vector<std::atomic<int>> calls(2 * 8);
    const auto caller = [&](std::size_t offset) {
        pool.run(8, [&, offset](std::size_t i) {
            if (i == 0) { both.arrive_and_wait(); }
            calls[offset + i].fetch_add(1);
        });
    };
    std::thread first(caller, 0);
    std::thread second(caller, 8);
    first.join();
    second.join();
    for (std::size_t i = 0; i < calls.size(); ++i) { EXPECT_EQ(calls[i].load(), 1) << i; }
}

TEST(WorkerPool, BackToBackLoopsFromTwoCallersAllFinish) {
    // Many short loops, so helpers keep switching between running, spinning
    // and parking: a lost wakeup would hang a loop here.
    constexpr int kLoops = 10'000;
    constexpr std::size_t kIndices = 16;
    WorkerPool pool(3);
    std::atomic<std::size_t> total{0};
    const auto caller = [&] {
        for (int loop = 0; loop < kLoops; ++loop) {
            std::atomic<std::size_t> ran{0};
            pool.run(kIndices, [&](std::size_t) { ran.fetch_add(1); });
            ASSERT_EQ(ran.load(), kIndices);
            total.fetch_add(kIndices);
        }
    };
    std::thread first(caller);
    std::thread second(caller);
    first.join();
    second.join();
    EXPECT_EQ(total.load(), 2 * kLoops * kIndices);
}

TEST(WorkerPool, DestructorJoinsSpinningHelpers) {
    // Right after a loop every helper that took part is still spinning;
    // destroying the pool must stop and join them, not hang.
    for (int round = 0; round < 50; ++round) {
        WorkerPool pool(3);
        std::atomic<int> ran{0};
        pool.run(64, [&](std::size_t) { ran.fetch_add(1); });
        EXPECT_EQ(ran.load(), 64);
    }
}

}  // namespace
}  // namespace katric::util
