// Host-clock spans recorded by the benchmark around its own calls into each
// library layer. Spans live in memory and are written once, at exit, so the
// recording itself costs one vector append per span.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
inline double now_s() {
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point origin = Clock::now();
    return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// One timed interval: what ran, when, which span caused it (-1 = none),
/// and which operation it belongs to (spans of one operation share it).
struct Span {
    std::string name;
    double start = 0.0;
    double end = std::numeric_limits<double>::quiet_NaN();
    std::int64_t parent = -1;
    std::uint64_t op = 0;
};

class SpanLog {
public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /// Opens a span at the current time; returns its id (-1 when disabled).
    std::int64_t open(std::string name, std::uint64_t op, std::int64_t parent = -1) {
        if (!enabled_) { return -1; }
        spans_.push_back(Span{std::move(name), now_s(),
                              std::numeric_limits<double>::quiet_NaN(), parent, op});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    /// Closes an open span at the current time (no-op for id -1).
    void close(std::int64_t id) {
        if (id >= 0) { spans_[static_cast<std::size_t>(id)].end = now_s(); }
    }

    /// Records an already measured interval without a parent.
    void add(std::string name, double start, double end, std::uint64_t op) {
        if (enabled_) { spans_.push_back(Span{std::move(name), start, end, -1, op}); }
    }

    /// Durations of every closed span with this name, in recording order.
    [[nodiscard]] std::vector<double> durations(const std::string& name) const {
        std::vector<double> out;
        for (const auto& span : spans_) {
            if (span.name == name && !std::isnan(span.end)) {
                out.push_back(span.end - span.start);
            }
        }
        return out;
    }

    /// Writes the spans as a JSON array; false on I/O failure.
    bool write_json(const std::string& path) const {
        std::ofstream out(path);
        if (!out) { return false; }
        out.precision(17);
        out << "[\n";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const auto& span = spans_[i];
            out << "  {\"id\": " << i << ", \"name\": \"" << span.name
                << "\", \"start\": " << span.start << ", \"end\": "
                << (std::isnan(span.end) ? span.start : span.end)
                << ", \"parent\": " << span.parent << ", \"op\": " << span.op << "}"
                << (i + 1 < spans_.size() ? ",\n" : "\n");
        }
        out << "]\n";
        return static_cast<bool>(out);
    }

private:
    bool enabled_;
    std::vector<Span> spans_;
};

/// Closes a span when the scope ends.
class SpanScope {
public:
    SpanScope(SpanLog& log, std::string name, std::uint64_t op, std::int64_t parent = -1)
        : log_(log), id_(log.open(std::move(name), op, parent)) {}
    ~SpanScope() { log_.close(id_); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

private:
    SpanLog& log_;
    std::int64_t id_;
};

}  // namespace perfbench
