#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace poc::util {
namespace {

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce) {
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    parallel_for(4, kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ParallelForZeroCountReturnsImmediately) {
    for (const std::size_t width : {std::size_t{0}, std::size_t{1}, std::size_t{2}}) {
        parallel_for(width, 0, [](std::size_t) { FAIL() << "must not be called"; });
    }
}

TEST(ThreadPool, ParallelForWidthOneRunsInlineInOrder) {
    for (const std::size_t width : {std::size_t{0}, std::size_t{1}}) {
        std::vector<std::size_t> order;
        std::set<std::thread::id> ids;
        parallel_for(width, 16, [&](std::size_t i) {
            order.push_back(i);
            ids.insert(std::this_thread::get_id());
        });
        ASSERT_EQ(order.size(), 16u);
        for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
        EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
    }
}

TEST(ThreadPool, CallerParticipatesInDraining) {
    // Width 2 starts one helper thread. Each index waits until both have
    // started, so both finish only when the calling thread runs one.
    std::latch both(2);
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallel_for(2, 2, [&](std::size_t) {
        both.count_down();
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!both.try_wait() && std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_TRUE(both.try_wait());
    EXPECT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPool, UnevenTaskCostsAllComplete) {
    std::atomic<int> ran{0};
    parallel_for(4, 32, [&](std::size_t i) {
        if (i % 4 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
        ran.fetch_add(1);
    });
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, TasksRunOnMultipleThreadsWhenAvailable) {
    std::mutex mutex;
    std::set<std::thread::id> ids;
    parallel_for(4, 64, [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
    });
    // The caller and at most three helpers.
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 4u);
}

TEST(ThreadPool, ParallelForStopsAfterAThrowAndRethrowsTheLowestIndex) {
    // Indices 3, 10, 17, ... throw. Serially nothing past 3 starts; at
    // any width the rethrown error is index 3's, since every index below
    // a failing one was claimed, and so ran, before it.
    for (const std::size_t width :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        std::vector<std::atomic<int>> ran(64);
        try {
            parallel_for(width, ran.size(), [&](std::size_t i) {
                ran[i].fetch_add(1);
                if (i % 7 == 3) throw std::runtime_error(std::to_string(i));
            });
            ADD_FAILURE() << "width " << width << ": no exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "3") << "width " << width;
        }
        for (std::size_t i = 0; i <= 3; ++i) EXPECT_EQ(ran[i].load(), 1) << "width " << width;
        if (width == 1) {
            for (std::size_t i = 4; i < ran.size(); ++i) EXPECT_EQ(ran[i].load(), 0);
        }
    }
}

}  // namespace
}  // namespace poc::util
