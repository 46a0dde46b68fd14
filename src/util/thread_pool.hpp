// The fan-out for embarrassingly parallel batches: the auction engine's
// independent per-BP Clarke-pivot re-solves (market/vcg.cpp) and the
// sharded flow pass's shard tasks (net/shard.cpp). One call starts its
// threads, runs the batch, and joins them; nothing idles between calls.
//
// Every thread, the calling thread included, claims the next index from
// one atomic counter, so indices start in index order and no thread
// steals from another: a batch's work is the same at every width, and
// only which thread runs an index depends on timing.
#pragma once

#include <cstddef>
#include <functional>

namespace poc::util {

/// The host's hardware thread count, at least 1.
std::size_t hardware_threads();

namespace detail {
void fan_out(std::size_t threads, std::size_t count, const std::function<void(std::size_t)>& fn);
}  // namespace detail

/// Run fn(0), ..., fn(count - 1) on min(width, count) threads, counting
/// the calling thread; width 0 or 1 runs them inline, in order, and
/// allocates nothing. Once an index throws, no further index starts;
/// when every started one has finished, the exception of the lowest
/// index that threw is rethrown. Indices start in order, so that is the
/// one a serial run would throw.
template <typename Fn>
void parallel_for(std::size_t width, std::size_t count, Fn&& fn) {
    if (width <= 1 || count <= 1) {
        for (std::size_t i = 0; i < count; ++i) fn(i);
        return;
    }
    detail::fan_out(width < count ? width : count, count, std::ref(fn));
}

}  // namespace poc::util
