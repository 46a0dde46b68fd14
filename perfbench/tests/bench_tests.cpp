// Unit tests of the benchmark's own arithmetic: the percentile rule,
// self-time subtraction, and open-loop due-time latency.
#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;

TEST(Percentile, NearestRank) {
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(101 - i));
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(v, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
    EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(TrimmedMean, LeavesOutTheSlowestShare) {
    std::vector<double> v(99, 1.0);
    v.push_back(5000.0);  // one preempted sample
    EXPECT_DOUBLE_EQ(trimmed_mean(v, 0.01), 1.0);
    EXPECT_DOUBLE_EQ(trimmed_mean(v, 0.0), (99.0 + 5000.0) / 100.0);
    EXPECT_DOUBLE_EQ(trimmed_mean({4.0, 2.0}, 0.01), 3.0);  // 1% of 2 drops nothing
    EXPECT_THROW(trimmed_mean({}, 0.01), std::invalid_argument);
    EXPECT_THROW(trimmed_mean({1.0}, 1.0), std::invalid_argument);
}

TEST(Percentile, HighestWithTenBeyond) {
    // p99 needs 1000 samples to leave 10 beyond it; 999 leave only 9.
    EXPECT_EQ(highest_reportable_percentile(1000), 99.0);
    EXPECT_EQ(highest_reportable_percentile(999), 90.0);
    EXPECT_EQ(highest_reportable_percentile(100), 90.0);
    EXPECT_EQ(highest_reportable_percentile(99), 50.0);
    EXPECT_EQ(highest_reportable_percentile(20), 50.0);
    EXPECT_EQ(highest_reportable_percentile(19), std::nullopt);
    EXPECT_EQ(highest_reportable_percentile(10000), 99.9);
    EXPECT_EQ(highest_reportable_percentile(100000), 99.99);
    EXPECT_TRUE(percentile_reportable(1000, 99.0));
    EXPECT_FALSE(percentile_reportable(999, 99.0));
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
    // Parent [0, 100); children [10, 30) and [20, 50) overlap, [60, 70)
    // is separate, [90, 120) sticks out: covered = 40 + 10 + 10.
    EXPECT_EQ(self_ns({0, 100}, {{10, 30}, {20, 50}, {60, 70}, {90, 120}}), 40);
    EXPECT_EQ(self_ns({0, 100}, {}), 100);
    EXPECT_EQ(self_ns({0, 100}, {{-10, 200}}), 0);
    EXPECT_EQ(self_ns({0, 100}, {{60, 70}, {10, 20}}), 80);  // unsorted input
}

TEST(SelfTime, SpanLogUsesParents) {
    const Clock::time_point t0 = Clock::now();
    SpanLog log(t0);
    const std::int64_t epoch = log.add("epoch", t0, t0 + milliseconds(10), -1, 0);
    log.add("stage.auction", t0 + milliseconds(1), t0 + milliseconds(5), epoch, 0);
    const std::int64_t late = log.add("publish", t0 + milliseconds(8), t0 + milliseconds(9));
    log.set_parent(late, epoch);
    const std::vector<double> self = log.self_ms("epoch");
    ASSERT_EQ(self.size(), 1u);
    EXPECT_NEAR(self[0], 5.0, 1e-9);
    EXPECT_NEAR(log.total_ms("stage.auction").at(0), 4.0, 1e-9);
}

TEST(DueTime, LatencyCountsFromWhenTheRequestWasDue) {
    const Clock::time_point t0 = Clock::now();
    const Schedule sched(t0, 1000.0);  // one request per ms
    EXPECT_EQ(sched.due(0), t0);
    EXPECT_EQ(sched.due(3), t0 + milliseconds(3));
    EXPECT_EQ(Schedule(t0, 1000.0, 0.5).due(1), t0 + microseconds(1500));

    // On time: latency is the service time.
    DueTiming on_time = due_timing(sched.due(1), sched.due(1), sched.due(1) + microseconds(2));
    EXPECT_DOUBLE_EQ(on_time.late_us, 0.0);
    EXPECT_DOUBLE_EQ(on_time.latency_us, 2.0);
    EXPECT_DOUBLE_EQ(on_time.service_us, 2.0);

    // A 5 ms stall: request 2 is sent 3 ms late and its latency
    // includes the wait, not just its own 2 us of service.
    DueTiming stalled =
        due_timing(sched.due(2), t0 + milliseconds(5), t0 + milliseconds(5) + microseconds(2));
    EXPECT_DOUBLE_EQ(stalled.late_us, 3000.0);
    EXPECT_DOUBLE_EQ(stalled.latency_us, 3002.0);
    EXPECT_DOUBLE_EQ(stalled.service_us, 2.0);
    EXPECT_THROW(Schedule(t0, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
