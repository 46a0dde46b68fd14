// Summary statistics the benchmark reports: nearest-rank percentiles,
// the "highest percentile with at least ten samples beyond it" rule,
// and open-loop due-time latency.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
/// Requires a non-empty sample.
double percentile(std::vector<double> values, double p);

double median(const std::vector<double>& values);

/// Mean of a non-empty sample with its slowest `frac` (in [0, 1)) left
/// out, so that a few preempted samples do not dominate it.
double trimmed_mean(std::vector<double> values, double frac);

/// The highest of the standard percentiles (99.99, 99.9, 99, 90, 50)
/// that leaves at least `min_beyond` samples above it in a sample of
/// `n`; nullopt when even the median does not.
std::optional<double> highest_reportable_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Whether percentile `p` of a sample of `n` has at least `min_beyond`
/// samples beyond it.
bool percentile_reportable(std::size_t n, double p, std::size_t min_beyond = 10);

/// An open-loop schedule: request k is due at start + k / rate (plus a
/// fixed phase so several generators interleave instead of colliding).
class Schedule {
public:
    Schedule(Clock::time_point start, double rate_per_s, double phase = 0.0);

    Clock::time_point due(std::uint64_t k) const;

private:
    Clock::time_point start_;
    double period_ns_;
    double phase_;
};

/// One open-loop request's timing: how late the generator sent it, how
/// long it took from when it was due (so a stall that delays later
/// requests is charged to them), and its service time from send to
/// reply.
struct DueTiming {
    double late_us = 0.0;
    double latency_us = 0.0;
    double service_us = 0.0;
};

DueTiming due_timing(Clock::time_point due, Clock::time_point sent, Clock::time_point done);

double ms_between(Clock::time_point a, Clock::time_point b);

}  // namespace perfbench
