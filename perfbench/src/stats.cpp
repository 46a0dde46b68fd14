#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

/// 1-based rank of the p-th percentile in a sorted sample of n. The
/// epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
double nearest_rank(double p, std::size_t n) {
    return std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
    if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
    std::sort(values.begin(), values.end());
    const double rank = nearest_rank(p, values.size());
    const auto idx = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
    return values[std::min(idx, values.size() - 1)];
}

double median(const std::vector<double>& values) { return percentile(values, 50.0); }

double trimmed_mean(std::vector<double> values, double frac) {
    if (values.empty()) throw std::invalid_argument("mean of an empty sample");
    if (!(frac >= 0.0 && frac < 1.0)) throw std::invalid_argument("trim fraction not in [0, 1)");
    std::sort(values.begin(), values.end());
    const auto drop = static_cast<std::size_t>(frac * static_cast<double>(values.size()));
    const std::size_t keep = values.size() - drop;
    double sum = 0.0;
    for (std::size_t i = 0; i < keep; ++i) sum += values[i];
    return sum / static_cast<double>(keep);
}

bool percentile_reportable(std::size_t n, double p, std::size_t min_beyond) {
    // Samples strictly beyond the nearest-rank p-th percentile.
    const double at = nearest_rank(p, n);
    return static_cast<double>(n) - at >= static_cast<double>(min_beyond);
}

std::optional<double> highest_reportable_percentile(std::size_t n, std::size_t min_beyond) {
    for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
        if (percentile_reportable(n, p, min_beyond)) return p;
    }
    return std::nullopt;
}

Schedule::Schedule(Clock::time_point start, double rate_per_s, double phase)
    : start_(start), period_ns_(1e9 / rate_per_s), phase_(phase) {
    if (!(rate_per_s > 0.0)) throw std::invalid_argument("schedule rate must be positive");
}

Clock::time_point Schedule::due(std::uint64_t k) const {
    const double offset = (static_cast<double>(k) + phase_) * period_ns_;
    return start_ + std::chrono::nanoseconds(static_cast<std::int64_t>(offset));
}

DueTiming due_timing(Clock::time_point due, Clock::time_point sent, Clock::time_point done) {
    DueTiming t;
    t.late_us = std::max(0.0, std::chrono::duration<double, std::micro>(sent - due).count());
    t.latency_us = std::chrono::duration<double, std::micro>(done - due).count();
    t.service_us = std::chrono::duration<double, std::micro>(done - sent).count();
    return t;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace perfbench
