// In-memory span log for the traced run. Spans are recorded around the
// benchmark's own calls into each layer (stage hooks, the commit
// callback, the timing oracle), kept in memory, and written out once
// when the run ends.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    /// Index of the parent span in the log; -1 for a root.
    std::int64_t parent = -1;
    /// Epoch the span belongs to; -1 when it belongs to none.
    std::int64_t epoch = -1;

    double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

struct Interval {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Length of the part of [start, end) not covered by any child
/// interval. Children may overlap each other (parallel work) and may
/// stick out of the parent; only the covered part inside counts.
std::int64_t self_ns(Interval parent, std::vector<Interval> children);

class SpanLog {
public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    /// Append a finished span; returns its index.
    std::int64_t add(std::string name, Clock::time_point start, Clock::time_point end,
                     std::int64_t parent = -1, std::int64_t epoch = -1);

    /// Reparent an already recorded span (children can finish before
    /// the span that covers them is known).
    void set_parent(std::int64_t child, std::int64_t parent);

    std::vector<Span> spans() const;

    /// Self time of every span named `name`, in ms.
    std::vector<double> self_ms(const std::string& name) const;
    /// Duration of every span named `name`, in ms.
    std::vector<double> total_ms(const std::string& name) const;

    /// The whole log as a JSON array of
    /// {"name","start_us","end_us","parent","epoch"} objects.
    std::string json() const;

private:
    Clock::time_point origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

}  // namespace perfbench
