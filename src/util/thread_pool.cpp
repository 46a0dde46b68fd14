#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace poc::util {

std::size_t hardware_threads() {
    static const std::size_t n = std::max(1u, std::thread::hardware_concurrency());
    return n;
}

namespace detail {

void fan_out(std::size_t threads, std::size_t count, const std::function<void(std::size_t)>& fn) {
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors(count);
    const auto drain = [&] {
        while (!failed.load(std::memory_order_relaxed)) {
            const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count) return;
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };
    {
        // Each helper counts on the obs shard after its caller's and its
        // lower-ranked siblings', so the batch's counters do not share
        // cache lines however many batches ran before.
        const std::size_t shard = obs::detail::shard_index();
        std::vector<std::jthread> helpers;  // joined on scope exit, also on a throw
        helpers.reserve(threads - 1);
        for (std::size_t t = 1; t < threads; ++t) {
            helpers.emplace_back([&drain, shard, t] {
                obs::detail::shard_index() = shard + t;
                drain();
            });
        }
        drain();
    }
    // Every claimed index below count ran; claims past it came last.
    POC_OBS_COUNT("util.pool.tasks_executed", std::min(next.load(), count));
    for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
    }
}

}  // namespace detail
}  // namespace poc::util
