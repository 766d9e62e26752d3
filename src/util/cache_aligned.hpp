#pragma once

namespace katric::util {

/// A value alone on its cache line(s). Per-rank slots that ranks running
/// concurrently write (the simulator's rank-parallel supersteps) wrap their
/// element in it, so two ranks' writes never contend for one line.
template <typename T>
struct alignas(64) CacheAligned {
    T value{};
};

}  // namespace katric::util
