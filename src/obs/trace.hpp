// Scoped-span tracing for the POC backbone (DESIGN.md §5a). A Span is
// an RAII scoped timer: construction stamps a steady-clock start, the
// destructor pushes a {name, thread, start_ns, dur_ns} record into the
// calling thread's ring buffer. Rings are fixed-capacity (oldest
// records are overwritten and counted as dropped, never blocking the
// hot path) and are drained on demand into one start-ordered epoch
// timeline — benches and the chaos engine attach that timeline to their
// per-epoch snapshots.
//
// Costs and contracts:
//  * A span records ~two steady_clock reads plus one push under the
//    ring's own mutex. The mutex is per-thread, so it is uncontended
//    except against a concurrent drain; nothing on the metrics hot
//    path waits on it.
//  * Span names must be string literals (or otherwise outlive the
//    trace registry): records store the pointer, not a copy.
//  * Tracing never feeds back into simulation state: clocks are read
//    for telemetry only, so instrumented runs stay bit-identical to
//    uninstrumented ones.
//
// Ring buffers are owned by the TraceRegistry and live until process
// exit; a thread that exits releases its ring for reuse by the next
// new thread (undrained records survive the handoff), so the threads
// util::parallel_for starts per call do not grow the registry without
// bound.
//
// Lifetime contract: a TraceRegistry must outlive every thread that
// records into it — thread exit hands the ring back to the owning
// registry. The process-wide traces() singleton satisfies this
// trivially; tests that construct local registries must record only
// from threads joined before the registry dies.
//
// Header-only for the same reason as obs/metrics.hpp: poc_util's
// fan-out must be traceable without a library cycle. With
// POC_OBS_DISABLED the Span type and macros compile to nothing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.hpp"

namespace poc::obs {

/// One completed span.
struct SpanRecord {
    const char* name = nullptr;  // string literal; not owned
    std::uint32_t thread = 0;    // registry-assigned dense thread index
    std::uint64_t start_ns = 0;  // steady-clock, process-relative
    std::uint64_t dur_ns = 0;

    friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// Steady-clock nanoseconds. Telemetry only — never simulation state.
inline std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Owns every thread's span ring; drains them into one timeline.
class TraceRegistry {
public:
    /// Per-thread ring capacity (records). Oldest records are
    /// overwritten once full; overwrites are tallied in dropped().
    static constexpr std::size_t kRingCapacity = 4096;

    void record(const char* name, std::uint64_t start_ns, std::uint64_t dur_ns) {
#if POC_OBS_ENABLED
        Ring& ring = local_ring();
        std::lock_guard<std::mutex> lock(ring.mutex);
        SpanRecord rec{name, ring.thread, start_ns, dur_ns};
        if (ring.records.size() < kRingCapacity) {
            ring.records.push_back(rec);
        } else {
            ring.records[ring.next_overwrite] = rec;
            ring.next_overwrite = (ring.next_overwrite + 1) % kRingCapacity;
            dropped_.fetch_add(1, std::memory_order_relaxed);
        }
#else
        (void)name;
        (void)start_ns;
        (void)dur_ns;
#endif
    }

    /// Collect-and-clear every ring into one timeline ordered by start
    /// time (ties broken by thread index then name, so the order is
    /// deterministic for identical timestamp sets).
    std::vector<SpanRecord> drain() {
        std::vector<SpanRecord> out;
        std::lock_guard<std::mutex> registry_lock(mutex_);
        for (const auto& ring : rings_) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            // Oldest-first within the ring: [next_overwrite, end) then
            // [0, next_overwrite) once it has wrapped.
            const std::size_t n = ring->records.size();
            for (std::size_t i = 0; i < n; ++i) {
                out.push_back(ring->records[(ring->next_overwrite + i) % n]);
            }
            ring->records.clear();
            ring->next_overwrite = 0;
        }
        std::sort(out.begin(), out.end(), [](const SpanRecord& a, const SpanRecord& b) {
            if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
            if (a.thread != b.thread) return a.thread < b.thread;
            return std::strcmp(a.name, b.name) < 0;
        });
        return out;
    }

    /// Records overwritten (ring full) since process start.
    std::uint64_t dropped() const noexcept { return dropped_.load(std::memory_order_relaxed); }

    /// Rings ever allocated (reuse keeps this bounded by peak thread
    /// count, not total threads created).
    std::size_t ring_count() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return rings_.size();
    }

private:
    struct Ring {
        std::mutex mutex;
        std::vector<SpanRecord> records;
        std::size_t next_overwrite = 0;  // overwrite cursor once full
        std::uint32_t thread = 0;
    };

    /// Thread-exit hook: hand the ring back for reuse. Records stay
    /// until the next drain.
    struct ThreadSlot {
        TraceRegistry* owner = nullptr;
        Ring* ring = nullptr;
        ~ThreadSlot() {
            if (owner != nullptr && ring != nullptr) owner->release(ring);
        }
    };

    Ring& local_ring() {
        thread_local ThreadSlot slot;
        if (slot.ring == nullptr || slot.owner != this) {
            slot.owner = this;
            slot.ring = &acquire();
        }
        return *slot.ring;
    }

    Ring& acquire() {
        std::lock_guard<std::mutex> lock(mutex_);
        Ring* ring = nullptr;
        if (!free_.empty()) {
            ring = free_.back();
            free_.pop_back();
        } else {
            rings_.push_back(std::make_unique<Ring>());
            ring = rings_.back().get();
        }
        {
            // A fresh (or recycled) ring gets a fresh thread index; any
            // undrained records keep the index of the thread that wrote
            // them only until the ring wraps, which is the documented
            // best-effort semantics of ring reuse.
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            ring->thread = next_thread_++;
        }
        return *ring;
    }

    void release(Ring* ring) {
        std::lock_guard<std::mutex> lock(mutex_);
        free_.push_back(ring);
    }

    mutable std::mutex mutex_;
    std::deque<std::unique_ptr<Ring>> rings_;
    std::vector<Ring*> free_;
    std::uint32_t next_thread_ = 0;
    std::atomic<std::uint64_t> dropped_{0};
};

/// The process-wide trace sink, sibling of obs::registry().
inline TraceRegistry& traces() {
    static TraceRegistry instance;
    return instance;
}

#if POC_OBS_ENABLED

/// RAII scoped timer; emits one SpanRecord on destruction. `name` must
/// be a string literal (stored by pointer).
class Span {
public:
    explicit Span(const char* name) noexcept : name_(name), start_ns_(now_ns()) {}
    ~Span() {
        const std::uint64_t end = now_ns();
        traces().record(name_, start_ns_, end - start_ns_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    const char* name_;
    std::uint64_t start_ns_;
};

/// RAII timer recording elapsed milliseconds into a histogram.
class ScopedTimerMs {
public:
    explicit ScopedTimerMs(Histogram& hist) noexcept : hist_(hist), start_ns_(now_ns()) {}
    ~ScopedTimerMs() {
        hist_.record(static_cast<double>(now_ns() - start_ns_) * 1e-6);
    }
    ScopedTimerMs(const ScopedTimerMs&) = delete;
    ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

private:
    Histogram& hist_;
    std::uint64_t start_ns_;
};

/// Open a span covering the rest of the enclosing scope.
#define POC_OBS_SPAN(name) ::poc::obs::Span POC_OBS_CONCAT(poc_obs_span_, __LINE__)(name)

/// Time the rest of the enclosing scope into a latency histogram
/// (milliseconds, fixed buckets).
#define POC_OBS_TIMER_MS(name, lo, hi, bins)                              \
    static ::poc::obs::Histogram& POC_OBS_CONCAT(poc_obs_timer_hist_, __LINE__) = \
        ::poc::obs::registry().histogram(name, lo, hi, bins);             \
    ::poc::obs::ScopedTimerMs POC_OBS_CONCAT(poc_obs_timer_, __LINE__)(   \
        POC_OBS_CONCAT(poc_obs_timer_hist_, __LINE__))

#else  // POC_OBS_DISABLED

#define POC_OBS_SPAN(name) \
    do {                   \
    } while (false)
#define POC_OBS_TIMER_MS(name, lo, hi, bins) \
    do {                                     \
    } while (false)

#endif  // POC_OBS_ENABLED

}  // namespace poc::obs
