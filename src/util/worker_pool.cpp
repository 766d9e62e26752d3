#include "util/worker_pool.hpp"

#include <algorithm>

#include "util/timer.hpp"

namespace katric::util {

WorkerPool::WorkerPool(unsigned helpers) {
    threads_.reserve(helpers);
    for (unsigned i = 0; i < helpers; ++i) {
        threads_.emplace_back([this] { helper_main(); });
    }
}

WorkerPool::~WorkerPool() {
    {
        const MutexLock lock(mutex_);
        stopping_ = true;
    }
    work_.notify_all();
    for (auto& thread : threads_) { thread.join(); }
}

WorkerPool& WorkerPool::shared() {
    static WorkerPool pool(std::max(1u, std::thread::hardware_concurrency()) - 1);
    return pool;
}

void WorkerPool::drain(Loop& loop) {
    std::size_t ran = 0;
    for (std::size_t i = loop.next.fetch_add(1, std::memory_order_relaxed);
         i < loop.count; i = loop.next.fetch_add(1, std::memory_order_relaxed)) {
        (*loop.task)(i);
        ++ran;
    }
    if (ran == 0) { return; }
    const MutexLock lock(mutex_);
    loop.finished += ran;
    if (loop.finished == loop.count) { done_.notify_all(); }
}

void WorkerPool::retire(const Loop& loop) {
    const auto it = std::find_if(loops_.begin(), loops_.end(),
                                 [&](const auto& queued) { return queued.get() == &loop; });
    if (it != loops_.end()) {
        loops_.erase(it);
        queued_.store(loops_.size());
    }
}

void WorkerPool::run(std::size_t count, const Task& task) {
    if (threads_.empty() || count <= 1) {
        for (std::size_t i = 0; i < count; ++i) { task(i); }
        return;
    }
    // Shared with the helpers that pick it up: one may still hold it after
    // the last index ran and this call returned, but never calls the task.
    const auto loop = std::make_shared<Loop>(&task, count);
    {
        const MutexLock lock(mutex_);
        loops_.push_back(loop);
        queued_.store(loops_.size());
    }
    // Wake only as many helpers as there are indices left for them.
    const std::size_t wanted = std::min<std::size_t>(count - 1, threads_.size());
    for (std::size_t i = 0; i < wanted; ++i) { work_.notify_one(); }
    drain(*loop);
    const MutexLock lock(mutex_);
    retire(*loop);  // every index is claimed: nothing left for a helper
    while (loop->finished < count) { done_.wait(mutex_); }
}

void WorkerPool::helper_main() {
    while (true) {
        std::shared_ptr<Loop> loop;
        {
            const MutexLock lock(mutex_);
            while (!stopping_ && loops_.empty()) { work_.wait(mutex_); }
            if (loops_.empty()) { return; }  // stopping, nothing left to help with
            loop = loops_.front();
        }
        drain(*loop);
        {
            const MutexLock lock(mutex_);
            retire(*loop);
        }
        spin();
    }
}

void WorkerPool::spin() const noexcept {
    const WallTimer timer;
    while (queued_.load() == 0 && timer.elapsed_seconds() < kSpin) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
    }
}

}  // namespace katric::util
