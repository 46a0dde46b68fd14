// The determinism contract of the parallel/cached auction engine
// (DESIGN.md §5): Clarke pivots are independent and oracle verdicts are
// pure functions of the link set, so fanning the pivot re-solves across
// threads and memoizing verdicts/solves must produce the same
// AuctionResult bit for bit — selection, payments, PoB, outlay — as the
// serial uncached path, for any thread count. With the memo, each pivot
// works on its own overlay, so the work counts are the same at every
// thread count too.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "helpers/market.hpp"
#include "market/delta_reclear.hpp"
#include "market/pricing.hpp"
#include "market/vcg.hpp"
#include "net/path_cache.hpp"
#include "obs/metrics.hpp"
#include "topo/traffic.hpp"
#include "util/journal.hpp"
#include "util/retry.hpp"

namespace poc::market {
namespace {

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
        EXPECT_EQ(a.outcomes[i].name, b.outcomes[i].name);
        EXPECT_EQ(a.outcomes[i].selected_links, b.outcomes[i].selected_links);
        EXPECT_EQ(a.outcomes[i].bid_cost, b.outcomes[i].bid_cost);
        EXPECT_EQ(a.outcomes[i].cost_without, b.outcomes[i].cost_without);
        EXPECT_EQ(a.outcomes[i].payment, b.outcomes[i].payment);
        EXPECT_EQ(a.outcomes[i].pivot_defined, b.outcomes[i].pivot_defined);
        // pob is the same Money ratio in every mode: bitwise equality.
        EXPECT_EQ(a.outcomes[i].pob, b.outcomes[i].pob);
    }
}

/// The reference: serial and unmemoized.
AuctionOptions serial_options() {
    AuctionOptions opt;
    opt.threads = 1;
    return opt;
}

struct EngineConfig {
    std::size_t threads;
    bool cache;
    const char* label;
};

constexpr EngineConfig kConfigs[] = {
    {1, true, "serial+cache"},   {2, false, "2 threads"}, {2, true, "2 threads+cache"},
    {8, false, "8 threads"},     {8, true, "8 threads+cache"},
};

class ParallelAuctionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParallelAuctionProperty, RandomPoolsHeuristicSolver) {
    test::RandomSmallInstance inst(GetParam());
    const OfferPool pool = inst.pool();

    auto run = [&](const AuctionOptions& opt) {
        // Fresh oracle per run so lifetime query counts are comparable.
        const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
        return run_auction(pool, oracle, opt);
    };

    const auto baseline = run(serial_options());
    for (const EngineConfig& config : kConfigs) {
        DeltaReclearState memo;  // fresh: a per-auction memo
        AuctionOptions opt;
        opt.threads = config.threads;
        if (config.cache) opt.delta = &memo;
        const auto result = run(opt);
        ASSERT_EQ(baseline.has_value(), result.has_value()) << config.label;
        if (!baseline) continue;
        expect_identical(*baseline, *result, config.label);
        if (!config.cache) {
            // Uncached runs perform the identical query sequence, just
            // possibly reordered across threads: same total count.
            EXPECT_EQ(result->oracle_queries, baseline->oracle_queries) << config.label;
            EXPECT_EQ(result->oracle_cache_hits, 0u) << config.label;
        } else {
            // Each heuristic solve re-verifies its final selection
            // (select_links' postcondition), which is always a repeat
            // of an earlier verdict: at least that much must hit.
            EXPECT_GE(result->oracle_cache_hits, 1u) << config.label;
            EXPECT_LE(result->oracle_queries, baseline->oracle_queries) << config.label;
        }
    }
}

TEST_P(ParallelAuctionProperty, RandomPoolsExactSolver) {
    test::RandomSmallInstance inst(GetParam() * 3 + 1);
    const OfferPool pool = inst.pool();

    auto run = [&](const AuctionOptions& opt) {
        const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
        return run_auction(pool, oracle, opt);
    };

    AuctionOptions serial = serial_options();
    serial.exact = true;
    const auto baseline = run(serial);
    for (const EngineConfig& config : kConfigs) {
        DeltaReclearState memo;  // fresh: a per-auction memo
        AuctionOptions opt;
        opt.exact = true;
        opt.threads = config.threads;
        if (config.cache) opt.delta = &memo;
        const auto result = run(opt);
        ASSERT_EQ(baseline.has_value(), result.has_value()) << config.label;
        if (baseline) expect_identical(*baseline, *result, config.label);
    }
}

TEST_P(ParallelAuctionProperty, GeneratedTopologyFastOracle) {
    // Figure-2-shaped instance: generated BP topologies, gravity
    // traffic, the fast oracle — the scale the parallel engine exists
    // for, shrunk to test size.
    topo::BpGeneratorOptions bopt;
    bopt.bp_count = 6;
    bopt.min_cities = 6;
    bopt.max_cities = 12;
    bopt.seed = GetParam();
    topo::PocTopologyOptions popt;
    popt.min_colocated_bps = 3;
    auto topology = topo::build_poc_topology(topo::generate_bp_networks(bopt), popt);
    market::VirtualLinkOptions vopt;
    vopt.attach_count = std::min<std::size_t>(3, topology.router_city.size());
    const auto pool = make_offer_pool(topology, {}, vopt);
    topo::GravityOptions gopt;
    gopt.total_gbps = 300.0;
    const auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), 15);

    OracleOptions oopt;
    oopt.fidelity = OracleFidelity::kFast;
    auto run = [&](const AuctionOptions& opt) {
        const AcceptabilityOracle oracle(pool.graph(), tm, ConstraintKind::kLoad, oopt);
        return run_auction(pool, oracle, opt);
    };

    const auto baseline = run(serial_options());
    for (const EngineConfig& config : kConfigs) {
        DeltaReclearState memo;  // fresh: a per-auction memo
        AuctionOptions opt;
        opt.threads = config.threads;
        if (config.cache) opt.delta = &memo;
        const auto result = run(opt);
        ASSERT_EQ(baseline.has_value(), result.has_value()) << config.label;
        if (baseline) expect_identical(*baseline, *result, config.label);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelAuctionProperty,
                         ::testing::Values(401, 402, 403, 404, 405, 406));

std::string result_bytes(const std::optional<AuctionResult>& result) {
    util::BinaryWriter w;
    w.boolean(result.has_value());
    if (result) write_auction_result(w, *result);  // counters included
    return w.bytes();
}

/// One auction on a fresh oracle (so lifetime query counts compare) and
/// a fresh memo, which the caller may inspect afterwards.
struct MemoRun {
    std::optional<AuctionResult> result;
    DeltaReclearState memo;
};

void run_with_memo(MemoRun& run, const OfferPool& pool, const net::TrafficMatrix& tm,
                   OracleFidelity fidelity, std::size_t threads) {
    OracleOptions oopt;
    oopt.fidelity = fidelity;
    const AcceptabilityOracle oracle(pool.graph(), tm, ConstraintKind::kLoad, oopt);
    AuctionOptions opt;
    opt.threads = threads;
    opt.delta = &run.memo;
    run.result = run_auction(pool, oracle, opt);
}

/// Runs the auction `repeats` times at each width and requires every
/// run to equal the serial one: the result's bytes with its counters,
/// and the memo's entries once the overlays are absorbed.
void expect_same_work_at_every_width(const OfferPool& pool, const net::TrafficMatrix& tm,
                                     OracleFidelity fidelity, std::size_t repeats) {
    MemoRun serial;
    run_with_memo(serial, pool, tm, fidelity, 1);
    ASSERT_TRUE(serial.result.has_value());
    const std::string want = result_bytes(serial.result);
    for (std::size_t rep = 0; rep < repeats; ++rep) {
        for (const std::size_t threads : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
            SCOPED_TRACE("threads " + std::to_string(threads) + " repeat " + std::to_string(rep));
            MemoRun run;
            run_with_memo(run, pool, tm, fidelity, threads);
            ASSERT_TRUE(run.result.has_value());
            EXPECT_EQ(run.result->oracle_queries, serial.result->oracle_queries);
            EXPECT_EQ(run.result->oracle_cache_hits, serial.result->oracle_cache_hits);
            EXPECT_EQ(run.result->solve_cache_hits, serial.result->solve_cache_hits);
            EXPECT_EQ(result_bytes(run.result), want);
            EXPECT_TRUE(run.memo.cache().same_entries(serial.memo.cache()));
        }
    }
}

TEST(ParallelPivotWork, RandomPoolsCountTheSameAtEveryWidth) {
    for (const std::uint64_t seed : {601u, 602u, 603u, 604u}) {
        SCOPED_TRACE(seed);
        test::RandomSmallInstance inst(seed, 6);
        const OfferPool pool = inst.pool();
        for (const OracleFidelity fidelity : {OracleFidelity::kExact, OracleFidelity::kFast}) {
            expect_same_work_at_every_width(pool, inst.tm, fidelity, 50);
        }
    }
}

TEST(ParallelPivotWork, PaperTopologyCountsTheSameAtEveryWidth) {
    // The paper-scale instance the fig2 bench and clear-paper clear: 20
    // BPs (generator seed 42), gravity demands aggregated to the top 20.
    topo::PocTopology topology =
        topo::build_poc_topology(topo::generate_bp_networks({}), {});
    const OfferPool pool = make_offer_pool(topology);
    topo::GravityOptions gopt;
    gopt.total_gbps = 5000.0;
    const auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), 20);
    expect_same_work_at_every_width(pool, tm, OracleFidelity::kFast, 50);
}

TEST(GreedyWork, YenStepsAndReplaysCountTheSameAtEveryWidth) {
    // Greedy's work counters on the paper-scale instance: each pivot's
    // deletion pass carries its own witness over a memo overlay that
    // only the winner solve filled, so the Yen steps taken and the
    // demands replayed do not depend on how the pivots are scheduled.
    topo::PocTopology topology =
        topo::build_poc_topology(topo::generate_bp_networks({}), {});
    const OfferPool pool = make_offer_pool(topology);
    topo::GravityOptions gopt;
    gopt.total_gbps = 5000.0;
    const auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), 20);
    const obs::Counter& steps = obs::registry().counter("net.greedy.yen_steps");
    const obs::Counter& replayed = obs::registry().counter("net.greedy.replayed_demands");
    const obs::Counter& searches = obs::registry().counter("net.sssp.runs");
    const auto work = [&](std::size_t threads, bool cached) {
        MemoRun run;
        const std::uint64_t steps_before = steps.value();
        const std::uint64_t replayed_before = replayed.value();
        const std::uint64_t searches_before = searches.value();
        if (cached) {
            run_with_memo(run, pool, tm, OracleFidelity::kFast, threads);
        } else {
            OracleOptions oopt;
            oopt.fidelity = OracleFidelity::kFast;
            const AcceptabilityOracle oracle(pool.graph(), tm, ConstraintKind::kLoad, oopt);
            AuctionOptions opt;
            opt.threads = threads;
            run.result = run_auction(pool, oracle, opt);
        }
        EXPECT_TRUE(run.result.has_value());
        return std::array<std::uint64_t, 3>{steps.value() - steps_before,
                                            replayed.value() - replayed_before,
                                            searches.value() - searches_before};
    };
    for (const bool cached : {false, true}) {
        SCOPED_TRACE(cached ? "cached" : "uncached");
        const auto serial = work(1, cached);
#if POC_OBS_ENABLED
        EXPECT_GT(serial[0], 0u);
        EXPECT_GT(serial[1], 0u);
#endif
        for (int rep = 0; rep < 3; ++rep) EXPECT_EQ(work(4, cached), serial);
    }
}

TEST(ParallelPivotWidth, MemoAnsweredWarmAuctionStartsNoThread) {
    test::RandomSmallInstance inst(611, 6);
    const OfferPool pool = inst.pool();
    const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
    DeltaReclearState memo;
    AuctionOptions opt;
    opt.threads = 4;
    opt.delta = &memo;
    const obs::Counter& tasks = obs::registry().counter("util.pool.tasks_executed");

    const std::uint64_t before_cold = tasks.value();
    const auto cold = run_auction(pool, oracle, opt);
    ASSERT_TRUE(cold.has_value());
    const std::uint64_t before_warm = tasks.value();
    const std::size_t queries_before_warm = oracle.query_count();
    const auto warm = run_auction(pool, oracle, opt);
    ASSERT_TRUE(warm.has_value());
    expect_identical(*cold, *warm, "warm");
    // The warm run is answered from the memo in full: every pivot solve
    // hits, so its width is 1 and nothing fans out.
    EXPECT_EQ(oracle.query_count(), queries_before_warm);
    EXPECT_EQ(warm->solve_cache_hits, pool.bids().size() + 1);
    EXPECT_EQ(tasks.value(), before_warm);
#if POC_OBS_ENABLED
    // The cold run fanned its pivots out (the counter is live).
    EXPECT_EQ(before_warm - before_cold, pool.bids().size());
#else
    (void)before_cold;
#endif
}

/// Forwards to an inner oracle with no purity fingerprint, as a fault
/// hook would, and records the threads that query it and how many
/// queries overlap.
class UncertifiedOracle final : public Oracle {
public:
    explicit UncertifiedOracle(const Oracle& inner) : inner_(inner) {}

    std::set<std::thread::id> threads() const {
        std::lock_guard<std::mutex> lock(mutex_);
        return threads_;
    }
    int max_in_flight() const { return max_in_flight_.load(); }

private:
    bool accepts_impl(const net::Subgraph& sg) const override {
        const int now = in_flight_.fetch_add(1) + 1;
        int seen = max_in_flight_.load();
        while (now > seen && !max_in_flight_.compare_exchange_weak(seen, now)) {
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            threads_.insert(std::this_thread::get_id());
        }
        const bool verdict = inner_.accepts(sg);
        in_flight_.fetch_sub(1);
        return verdict;
    }

    const Oracle& inner_;
    mutable std::mutex mutex_;
    mutable std::set<std::thread::id> threads_;
    mutable std::atomic<int> in_flight_{0};
    mutable std::atomic<int> max_in_flight_{0};
};

TEST(ParallelPivotWidth, OracleWithoutFingerprintIsNeverQueriedConcurrently) {
    for (const std::uint64_t seed : {621u, 622u, 623u}) {
        test::RandomSmallInstance inst(seed, 6);
        const OfferPool pool = inst.pool();
        const AcceptabilityOracle base(inst.graph, inst.tm, ConstraintKind::kLoad);
        const auto baseline = run_auction(pool, base, serial_options());

        const UncertifiedOracle uncertified(base);
        DeltaReclearState memo;  // not engaged: there is no fingerprint
        AuctionOptions opt;
        opt.threads = 8;
        opt.delta = &memo;
        const auto result = run_auction(pool, uncertified, opt);
        ASSERT_EQ(baseline.has_value(), result.has_value());
        if (baseline) expect_identical(*baseline, *result, "uncertified");
        EXPECT_EQ(uncertified.max_in_flight(), 1);
        EXPECT_EQ(uncertified.threads(), std::set<std::thread::id>{std::this_thread::get_id()});
    }
}

TEST(ParallelPivotWidth, FaultHookSeesTheSerialQuerySequence) {
    // A fault hook makes the oracle opt out of purity, so the auction
    // stays serial at any width: the hook runs on the calling thread and
    // its Nth call, the one that fails, is the same query as in a serial
    // run.
    test::RandomSmallInstance inst(631, 6);
    const OfferPool pool = inst.pool();
    const AcceptabilityOracle probe(inst.graph, inst.tm, ConstraintKind::kLoad);
    ASSERT_TRUE(run_auction(pool, probe, serial_options()).has_value());
    const std::size_t fail_at = probe.query_count() / 2;
    ASSERT_GT(fail_at, 0u);

    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const AcceptabilityOracle inner(inst.graph, inst.tm, ConstraintKind::kLoad);
        std::size_t calls = 0;
        std::set<std::thread::id> callers;
        const FallibleOracle fallible(inner, [&] {
            callers.insert(std::this_thread::get_id());
            if (++calls == fail_at) throw util::TransientError("injected");
        });
        AuctionOptions opt;
        opt.threads = threads;
        EXPECT_THROW(run_auction(pool, fallible, opt), util::TransientError);
        EXPECT_EQ(calls, fail_at);
        EXPECT_EQ(inner.query_count(), fail_at - 1);
        EXPECT_EQ(callers, std::set<std::thread::id>{std::this_thread::get_id()});
    }
}

class PathCacheAuctionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PathCacheAuctionProperty, SharedTreeCacheIsBitIdentical) {
    // OracleOptions::path_cache reuses SSSP trees across Clarke-pivot
    // masks in the per-pair-failure constraint (the SSSP-heaviest
    // oracle). The auction outcome must not change, and on these
    // instances the pivots' overlapping masks must actually hit.
    test::RandomSmallInstance inst(GetParam());
    const OfferPool pool = inst.pool();

    for (const OracleFidelity fidelity : {OracleFidelity::kExact, OracleFidelity::kFast}) {
        SCOPED_TRACE(fidelity == OracleFidelity::kExact ? "exact" : "fast");
        OracleOptions base_opt;
        base_opt.fidelity = fidelity;
        const AcceptabilityOracle plain(inst.graph, inst.tm,
                                        ConstraintKind::kPerPairFailure, base_opt);
        const auto baseline = run_auction(pool, plain, serial_options());

        net::PathCache cache;
        OracleOptions cached_opt = base_opt;
        cached_opt.path_cache = &cache;
        const AcceptabilityOracle cached(inst.graph, inst.tm,
                                         ConstraintKind::kPerPairFailure, cached_opt);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            AuctionOptions aopt;
            aopt.threads = threads;
            const auto result = run_auction(pool, cached, aopt);
            ASSERT_EQ(baseline.has_value(), result.has_value());
            if (baseline) expect_identical(*baseline, *result, "path cache");
        }
        if (baseline) {
            EXPECT_GT(cache.stats().hits, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PathCacheAuctionProperty, ::testing::Values(411, 412, 413));

}  // namespace
}  // namespace poc::market
