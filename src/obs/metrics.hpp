// Always-on runtime metrics for the POC backbone (DESIGN.md §5a): the
// substrate a transparent, break-even operator needs to account for
// what every auction epoch, recovery action, and flow actually did.
//
// Three primitives, all wait-free on the hot path (plain relaxed
// fetch_add, no CAS loops, no locks):
//
//  * Counter   - monotonic event count, sharded across cache lines so
//    concurrent writers (pivot threads, pool workers) do not bounce one
//    line; reads sum the shards.
//  * Gauge     - signed instantaneous level (queue depth and the like).
//  * Histogram - fixed-bucket distribution with underflow/overflow bins
//    (same bucket semantics as util::Histogram) plus a fixed-point sum
//    at 1e-3 resolution, so mean latency survives snapshotting without
//    a non-wait-free atomic<double>.
//
// Metrics are owned by the process-wide MetricsRegistry and looked up
// by dot-separated name ("layer.component.metric", units as a suffix:
// `_ms`, `_microusd`). Registration takes a mutex; instrument sites go
// through the POC_OBS_* macros below, which cache the registry lookup
// in a function-local static so the steady state is one fetch_add.
//
// This header is deliberately header-only and free of link
// dependencies (util/contracts.hpp is inline) so that poc_util itself
// — the bottom of the dependency order — can be instrumented without a
// library cycle. The snapshot/export layer (obs/snapshot.hpp) is the
// part that links against poc_util.
//
// Compile-out: configuring with -DPOC_OBS_DISABLED=ON defines
// POC_OBS_DISABLED everywhere, which turns every POC_OBS_* macro into
// a no-op (arguments are not evaluated) for a zero-cost build. The
// registry API itself stays available so snapshot-consuming code
// compiles unchanged; it just sees no metrics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/contracts.hpp"

#if defined(POC_OBS_DISABLED)
#define POC_OBS_ENABLED 0
#else
#define POC_OBS_ENABLED 1
#endif

namespace poc::obs {

namespace detail {

/// Stable per-thread shard index: threads round-robin onto shards once
/// at first use, so a thread's increments always land on "its" line. A
/// thread started for one batch beside its caller may take the caller's
/// index plus its rank instead (util::parallel_for does), so up to
/// kShards threads of one batch never share a line.
inline std::size_t& shard_index() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local std::size_t idx = next.fetch_add(1, std::memory_order_relaxed);
    return idx;
}

}  // namespace detail

/// Monotonic counter, sharded to keep concurrent writers off a single
/// cache line. add() is wait-free; value() is a relaxed sum (exact once
/// writers quiesce, e.g. at snapshot points between epochs).
class Counter {
public:
    static constexpr std::size_t kShards = 8;  // power of two

    void add(std::uint64_t n = 1) noexcept {
        shards_[detail::shard_index() & (kShards - 1)].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    std::uint64_t value() const noexcept {
        std::uint64_t sum = 0;
        for (const Shard& s : shards_) sum += s.value.load(std::memory_order_relaxed);
        return sum;
    }

    void reset() noexcept {
        for (Shard& s : shards_) s.value.store(0, std::memory_order_relaxed);
    }

private:
    struct alignas(64) Shard {
        std::atomic<std::uint64_t> value{0};
    };
    Shard shards_[kShards];
};

/// Signed instantaneous level (queue depth, in-flight work). All
/// operations are single relaxed atomics: wait-free, last-writer-wins
/// for set().
class Gauge {
public:
    void set(std::int64_t v) noexcept { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t n) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
    void sub(std::int64_t n) noexcept { value_.fetch_sub(n, std::memory_order_relaxed); }
    std::int64_t value() const noexcept { return value_.load(std::memory_order_relaxed); }
    void reset() noexcept { set(0); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed-width histogram over [lo, hi) with underflow/overflow bins —
/// util::Histogram's bucket semantics, made concurrent. record() is
/// wait-free: per-bucket counts and the fixed-point sum are plain
/// fetch_adds. The sum is kept in milli-units (1e-3 resolution), which
/// is ample for the ms-scale latencies and Gbps-scale volumes recorded
/// here; sum() converts back to double.
class Histogram {
public:
    /// Requires lo < hi and bins >= 1.
    Histogram(double lo, double hi, std::size_t bins)
        : lo_(lo), hi_(hi), inv_width_(static_cast<double>(bins) / (hi - lo)), counts_(bins) {
        POC_EXPECTS(lo < hi);
        POC_EXPECTS(bins >= 1);
    }

    void record(double x) noexcept {
        total_.fetch_add(1, std::memory_order_relaxed);
        sum_milli_.fetch_add(static_cast<std::int64_t>(std::llround(x * 1e3)),
                             std::memory_order_relaxed);
        if (x < lo_) {
            underflow_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        if (x >= hi_) {
            overflow_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        auto bin = static_cast<std::size_t>((x - lo_) * inv_width_);
        if (bin >= counts_.size()) bin = counts_.size() - 1;  // FP edge
        counts_[bin].fetch_add(1, std::memory_order_relaxed);
    }

    std::size_t bin_count() const noexcept { return counts_.size(); }
    double lo() const noexcept { return lo_; }
    double hi() const noexcept { return hi_; }

    std::uint64_t count_in_bin(std::size_t bin) const {
        POC_EXPECTS(bin < counts_.size());
        return counts_[bin].load(std::memory_order_relaxed);
    }
    std::uint64_t underflow() const noexcept {
        return underflow_.load(std::memory_order_relaxed);
    }
    std::uint64_t overflow() const noexcept { return overflow_.load(std::memory_order_relaxed); }
    /// Every record() call, including under/overflow.
    std::uint64_t total() const noexcept { return total_.load(std::memory_order_relaxed); }
    /// Sum of recorded values at 1e-3 resolution.
    double sum() const noexcept {
        return static_cast<double>(sum_milli_.load(std::memory_order_relaxed)) * 1e-3;
    }

    /// Left edge of the given bin.
    double bin_lo(std::size_t bin) const {
        POC_EXPECTS(bin < counts_.size());
        return lo_ + static_cast<double>(bin) * (hi_ - lo_) / static_cast<double>(counts_.size());
    }

    void reset() noexcept {
        for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
        underflow_.store(0, std::memory_order_relaxed);
        overflow_.store(0, std::memory_order_relaxed);
        total_.store(0, std::memory_order_relaxed);
        sum_milli_.store(0, std::memory_order_relaxed);
    }

private:
    double lo_;
    double hi_;
    double inv_width_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> underflow_{0};
    std::atomic<std::uint64_t> overflow_{0};
    std::atomic<std::uint64_t> total_{0};
    std::atomic<std::int64_t> sum_milli_{0};
};

/// Point-in-time sample types, consumed by obs/snapshot.hpp. Defined
/// here so sampling needs no dependency beyond this header.
struct CounterSample {
    std::string name;
    std::uint64_t value = 0;
};
struct GaugeSample {
    std::string name;
    std::int64_t value = 0;
};
struct HistogramSample {
    std::string name;
    double lo = 0.0;
    double hi = 0.0;
    std::vector<std::uint64_t> counts;
    std::uint64_t underflow = 0;
    std::uint64_t overflow = 0;
    std::uint64_t total = 0;
    double sum = 0.0;
};

/// Process-wide metric namespace. Lookup-or-create takes a mutex (cold:
/// instrument sites cache the returned reference); the returned metric
/// objects are address-stable for the registry's lifetime. Iteration
/// for snapshots is in name order, so exports are deterministic.
class MetricsRegistry {
public:
    Counter& counter(const std::string& name) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto& slot = counters_[name];
        if (!slot) slot = std::make_unique<Counter>();
        return *slot;
    }

    Gauge& gauge(const std::string& name) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto& slot = gauges_[name];
        if (!slot) slot = std::make_unique<Gauge>();
        return *slot;
    }

    /// Lookup-or-create; re-requesting an existing histogram requires
    /// the identical bucket layout (one name, one schema).
    Histogram& histogram(const std::string& name, double lo, double hi, std::size_t bins) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto& slot = histograms_[name];
        if (!slot) {
            slot = std::make_unique<Histogram>(lo, hi, bins);
        } else {
            POC_EXPECTS(slot->lo() == lo && slot->hi() == hi && slot->bin_count() == bins);
        }
        return *slot;
    }

    std::vector<CounterSample> counter_samples() const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<CounterSample> out;
        out.reserve(counters_.size());
        for (const auto& [name, c] : counters_) out.push_back({name, c->value()});
        return out;
    }

    std::vector<GaugeSample> gauge_samples() const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<GaugeSample> out;
        out.reserve(gauges_.size());
        for (const auto& [name, g] : gauges_) out.push_back({name, g->value()});
        return out;
    }

    std::vector<HistogramSample> histogram_samples() const {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<HistogramSample> out;
        out.reserve(histograms_.size());
        for (const auto& [name, h] : histograms_) {
            HistogramSample s;
            s.name = name;
            s.lo = h->lo();
            s.hi = h->hi();
            s.counts.reserve(h->bin_count());
            for (std::size_t b = 0; b < h->bin_count(); ++b) {
                s.counts.push_back(h->count_in_bin(b));
            }
            s.underflow = h->underflow();
            s.overflow = h->overflow();
            s.total = h->total();
            s.sum = h->sum();
            out.push_back(std::move(s));
        }
        return out;
    }

    /// Zero every metric (tests and per-run benches; not a hot path).
    void reset() {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto& [name, c] : counters_) c->reset();
        for (auto& [name, g] : gauges_) g->reset();
        for (auto& [name, h] : histograms_) h->reset();
    }

private:
    mutable std::mutex mutex_;
    // std::map: deterministic name-ordered iteration for snapshots.
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry every POC_OBS_* macro records into.
inline MetricsRegistry& registry() {
    static MetricsRegistry instance;
    return instance;
}

}  // namespace poc::obs

#define POC_OBS_CONCAT_INNER(a, b) a##b
#define POC_OBS_CONCAT(a, b) POC_OBS_CONCAT_INNER(a, b)

#if POC_OBS_ENABLED

/// Add `n` to the named counter. Steady-state cost: one relaxed
/// fetch_add (the registry lookup is a function-local static).
#define POC_OBS_COUNT(name, n)                                                        \
    do {                                                                              \
        static ::poc::obs::Counter& poc_obs_counter_ = ::poc::obs::registry().counter(name); \
        poc_obs_counter_.add(static_cast<std::uint64_t>(n));                          \
    } while (false)

#define POC_OBS_INC(name) POC_OBS_COUNT(name, 1)

#define POC_OBS_GAUGE_SET(name, v)                                                    \
    do {                                                                              \
        static ::poc::obs::Gauge& poc_obs_gauge_ = ::poc::obs::registry().gauge(name); \
        poc_obs_gauge_.set(static_cast<std::int64_t>(v));                             \
    } while (false)

#define POC_OBS_GAUGE_ADD(name, v)                                                    \
    do {                                                                              \
        static ::poc::obs::Gauge& poc_obs_gauge_ = ::poc::obs::registry().gauge(name); \
        poc_obs_gauge_.add(static_cast<std::int64_t>(v));                             \
    } while (false)

#define POC_OBS_GAUGE_SUB(name, v)                                                    \
    do {                                                                              \
        static ::poc::obs::Gauge& poc_obs_gauge_ = ::poc::obs::registry().gauge(name); \
        poc_obs_gauge_.sub(static_cast<std::int64_t>(v));                             \
    } while (false)

/// Record `value` into the named fixed-bucket histogram.
#define POC_OBS_HISTOGRAM(name, lo, hi, bins, value)                                  \
    do {                                                                              \
        static ::poc::obs::Histogram& poc_obs_hist_ =                                 \
            ::poc::obs::registry().histogram(name, lo, hi, bins);                     \
        poc_obs_hist_.record(static_cast<double>(value));                             \
    } while (false)

#else  // POC_OBS_DISABLED: compile everything out; arguments are not
       // evaluated (sizeof keeps them type-checked without side effects).

#define POC_OBS_COUNT(name, n) \
    do {                       \
        (void)sizeof(n);       \
    } while (false)
#define POC_OBS_INC(name) \
    do {                  \
    } while (false)
#define POC_OBS_GAUGE_SET(name, v) \
    do {                           \
        (void)sizeof(v);           \
    } while (false)
#define POC_OBS_GAUGE_ADD(name, v) \
    do {                           \
        (void)sizeof(v);           \
    } while (false)
#define POC_OBS_GAUGE_SUB(name, v) \
    do {                           \
        (void)sizeof(v);           \
    } while (false)
#define POC_OBS_HISTOGRAM(name, lo, hi, bins, value) \
    do {                                             \
        (void)sizeof(value);                         \
    } while (false)

#endif  // POC_OBS_ENABLED
