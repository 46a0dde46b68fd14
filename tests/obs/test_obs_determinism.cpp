// The observability determinism contract (DESIGN.md §5a): obs is a
// pure side channel. Instrumented auction runs are bit-identical to
// each other regardless of what the metrics/trace registries contain,
// whether they are reset or drained mid-sequence, or whether snapshots
// are being captured concurrently — clocks and counters are read for
// telemetry only and never feed back into auction state. Together with
// the POC_OBS_DISABLED build of this same suite (CI runs both), this
// property-tests "instrumented == uninstrumented" for the auction.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "helpers/market.hpp"
#include "market/delta_reclear.hpp"
#include "market/pricing.hpp"
#include "market/vcg.hpp"
#include "obs/snapshot.hpp"

namespace poc::obs {
namespace {

using market::AcceptabilityOracle;
using market::AuctionOptions;
using market::AuctionResult;
using market::ConstraintKind;
using market::OfferPool;
using market::run_auction;

void expect_identical(const AuctionResult& a, const AuctionResult& b, const char* what) {
    SCOPED_TRACE(what);
    EXPECT_EQ(a.selection.links, b.selection.links);
    EXPECT_EQ(a.selection.cost, b.selection.cost);
    EXPECT_EQ(a.virtual_cost, b.virtual_cost);
    EXPECT_EQ(a.total_outlay, b.total_outlay);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(a.outcomes[i].bp, b.outcomes[i].bp);
        EXPECT_EQ(a.outcomes[i].selected_links, b.outcomes[i].selected_links);
        EXPECT_EQ(a.outcomes[i].bid_cost, b.outcomes[i].bid_cost);
        EXPECT_EQ(a.outcomes[i].cost_without, b.outcomes[i].cost_without);
        EXPECT_EQ(a.outcomes[i].payment, b.outcomes[i].payment);
        EXPECT_EQ(a.outcomes[i].pivot_defined, b.outcomes[i].pivot_defined);
        EXPECT_EQ(a.outcomes[i].pob, b.outcomes[i].pob);
    }
}

class ObsDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObsDeterminism, AuctionUnaffectedByRegistryState) {
    test::RandomSmallInstance inst(GetParam());
    const OfferPool pool = inst.pool();
    auto run = [&](const AuctionOptions& opt) {
        const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
        return run_auction(pool, oracle, opt);
    };

    const auto baseline = run({});

    // Same run with the registry polluted by unrelated metrics.
    registry().counter("det.noise").add(12345);
    registry().histogram("det.noise_hist", 0.0, 1.0, 3).record(0.5);
    const auto polluted = run({});

    // Same run right after a full registry reset and trace drain.
    registry().reset();
    traces().drain();
    const auto after_reset = run({});

    // Parallel engine with obs instrumentation active on every pivot
    // thread (spans + counters from worker threads).
    market::DeltaReclearState memo;
    AuctionOptions par;
    par.threads = 4;
    par.delta = &memo;
    const auto parallel = run(par);

    ASSERT_EQ(baseline.has_value(), polluted.has_value());
    ASSERT_EQ(baseline.has_value(), after_reset.has_value());
    ASSERT_EQ(baseline.has_value(), parallel.has_value());
    if (!baseline) return;
    expect_identical(*baseline, *polluted, "polluted registry");
    expect_identical(*baseline, *after_reset, "after reset+drain");
    expect_identical(*baseline, *parallel, "parallel instrumented");
}

TEST_P(ObsDeterminism, AuctionUnaffectedByConcurrentSnapshots) {
    // A snapshot reader racing the instrumented auction must not change
    // its outcome (and, under TSAN, must not race with it either).
    test::RandomSmallInstance inst(GetParam() * 7 + 5);
    const OfferPool pool = inst.pool();
    auto run = [&](const AuctionOptions& opt) {
        const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
        return run_auction(pool, oracle, opt);
    };

    const auto baseline = run({});

    std::atomic<bool> stop{false};
    std::thread reader([&stop] {
        while (!stop.load(std::memory_order_relaxed)) {
            const Snapshot snap = Snapshot::capture();
            (void)snap.json();
        }
    });
    AuctionOptions par;
    par.threads = 4;
    const auto observed = run(par);
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    ASSERT_EQ(baseline.has_value(), observed.has_value());
    if (baseline) expect_identical(*baseline, *observed, "concurrent snapshots");
}

#if POC_OBS_ENABLED
TEST_P(ObsDeterminism, InstrumentationActuallyFires) {
    // Guard against the vacuous version of this suite: the instrumented
    // run must actually move the auction counters.
    test::RandomSmallInstance inst(GetParam() * 11 + 3);
    const OfferPool pool = inst.pool();
    const Snapshot before = Snapshot::capture();
    const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
    const auto result = run_auction(pool, oracle, {});
    const Snapshot d = Snapshot::capture().delta_since(before);
    EXPECT_EQ(d.counter_or("market.auction.runs"), 1u);
    if (result) {
        EXPECT_GE(d.counter_or("market.auction.pivots"), 1u);
        EXPECT_GE(d.counter_or("market.auction.oracle_queries"), 1u);
        EXPECT_EQ(d.counter_or("market.auction.outlay_microusd"),
                  static_cast<std::uint64_t>(result->total_outlay.micros()));
    }
}
#endif

INSTANTIATE_TEST_SUITE_P(Seeds, ObsDeterminism, ::testing::Values(901, 902, 903, 904));

}  // namespace
}  // namespace poc::obs
