#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace katric::util {

/// A fixed set of helper threads that run index-parallel loops together
/// with the calling thread: run(n, task) calls task(i) once for every
/// i in [0, n), handing indices out one at a time to whichever thread is
/// free, and returns when all n calls have finished. Several threads may
/// call run() at once; their loops queue FIFO and every caller works on its
/// own loop too, so a loop always makes progress even when every helper is
/// busy elsewhere.
///
/// Which thread runs which index is unspecified — callers that need a
/// deterministic result make each index write only state it owns and
/// combine afterwards (the simulator's rank-parallel supersteps).
///
/// A helper that runs out of work spins for kSpin before it parks on a
/// condition variable: a stream batch runs several supersteps of well under
/// a millisecond each, and a helper that parked after every one would still
/// be waking up when the next one ended. The spin is bounded, so an idle
/// pool leaves the cores within kSpin.
class WorkerPool {
public:
    using Task = std::function<void(std::size_t)>;

    /// How long a helper polls for the next loop before parking (seconds).
    static constexpr double kSpin = 200e-6;

    /// Spawns `helpers` threads; 0 runs every loop inline on its caller.
    explicit WorkerPool(unsigned helpers);
    /// Stops and joins the helpers; a spinning one notices within kSpin.
    ~WorkerPool();
    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /// The process-wide pool: hardware_concurrency() − 1 helpers, so the
    /// helpers plus one calling thread fill the machine. Created on first
    /// use, joined at exit.
    [[nodiscard]] static WorkerPool& shared();

    /// Runs task(0) … task(count − 1) on the helpers and the calling thread;
    /// returns once every call has returned. `task` must not throw.
    void run(std::size_t count, const Task& task) KATRIC_EXCLUDES(mutex_);

private:
    /// One run() call in flight.
    struct Loop {
        Loop(const Task* loop_task, std::size_t loop_count)
            : task(loop_task), count(loop_count) {}
        const Task* task;
        std::size_t count;
        std::atomic<std::size_t> next{0};  ///< next unclaimed index
        /// Indices whose call has returned; guarded by the pool's mutex_.
        std::size_t finished = 0;
    };

    /// Claims and runs indices until none are left.
    void drain(Loop& loop) KATRIC_EXCLUDES(mutex_);
    /// Takes `loop` off the queue (no new helper can pick it up afterwards).
    void retire(const Loop& loop) KATRIC_REQUIRES(mutex_);
    void helper_main() KATRIC_EXCLUDES(mutex_);
    /// Polls queued_ for up to kSpin; returns early once a loop is queued.
    void spin() const noexcept;

    Mutex mutex_;
    CondVar work_;  ///< helpers: a loop was queued, or the pool is stopping
    CondVar done_;  ///< callers: some loop's last call returned
    std::deque<std::shared_ptr<Loop>> loops_ KATRIC_GUARDED_BY(mutex_);
    /// loops_.size(), written under mutex_ and polled without it by spin().
    std::atomic<std::size_t> queued_{0};
    bool stopping_ KATRIC_GUARDED_BY(mutex_) = false;
    std::vector<std::thread> threads_;
};

}  // namespace katric::util
