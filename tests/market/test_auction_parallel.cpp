// The determinism contract of the parallel/cached auction engine
// (DESIGN.md §5): Clarke pivots are independent and oracle verdicts are
// pure functions of the link set, so fanning the pivot re-solves across
// a thread pool and memoizing verdicts/solves must produce the same
// AuctionResult bit for bit — selection, payments, PoB, outlay — as the
// serial uncached path, for any thread count.
#include <gtest/gtest.h>

#include "helpers/market.hpp"
#include "market/delta_reclear.hpp"
#include "market/pricing.hpp"
#include "market/vcg.hpp"
#include "net/path_cache.hpp"
#include "topo/traffic.hpp"

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

    const auto baseline = run({});
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

    AuctionOptions serial;
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

    const auto baseline = run({});
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

TEST(ParallelPivotCutover, EngagementRulePinned) {
    // The small-instance guard: below `parallel_min_pivots` Clarke
    // pivots, pool setup costs more than the fan-out saves, so the
    // engine must stay serial. Pin the default and the exact cutover.
    AuctionOptions opt;
    EXPECT_EQ(opt.parallel_min_pivots, 8u);

    opt.threads = 4;
    EXPECT_FALSE(parallel_pivots_engaged(opt, 0));
    EXPECT_FALSE(parallel_pivots_engaged(opt, 1));
    EXPECT_FALSE(parallel_pivots_engaged(opt, 7));  // one below the default
    EXPECT_TRUE(parallel_pivots_engaged(opt, 8));   // exactly at the default
    EXPECT_TRUE(parallel_pivots_engaged(opt, 100));

    opt.threads = 1;  // serial request never engages
    EXPECT_FALSE(parallel_pivots_engaged(opt, 100));

    opt.threads = 2;
    opt.parallel_min_pivots = 0;  // floor removed: only the >1 guard remains
    EXPECT_FALSE(parallel_pivots_engaged(opt, 1));
    EXPECT_TRUE(parallel_pivots_engaged(opt, 2));

    opt.parallel_min_pivots = 3;
    EXPECT_FALSE(parallel_pivots_engaged(opt, 2));
    EXPECT_TRUE(parallel_pivots_engaged(opt, 3));
}

TEST(ParallelPivotCutover, BothSidesOfCutoverBitIdentical) {
    // 3-bid instances sit below the default threshold: force the
    // threshold to both sides of the instance size and require the
    // identical result either way.
    for (const std::uint64_t seed : {501u, 502u, 503u}) {
        test::RandomSmallInstance inst(seed);
        const OfferPool pool = inst.pool();
        auto run = [&](const AuctionOptions& opt) {
            const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad);
            return run_auction(pool, oracle, opt);
        };
        const auto baseline = run({});

        AuctionOptions engaged;  // pivots >= threshold: pool fan-out
        engaged.threads = 8;
        engaged.parallel_min_pivots = 2;
        AuctionOptions below;  // pivots < threshold: serial fallback
        below.threads = 8;
        below.parallel_min_pivots = 100;
        ASSERT_TRUE(parallel_pivots_engaged(engaged, pool.bids().size()));
        ASSERT_FALSE(parallel_pivots_engaged(below, pool.bids().size()));

        const auto a = run(engaged);
        const auto b = run(below);
        ASSERT_EQ(baseline.has_value(), a.has_value());
        ASSERT_EQ(baseline.has_value(), b.has_value());
        if (baseline) {
            expect_identical(*baseline, *a, "engaged");
            expect_identical(*baseline, *b, "below cutover");
        }
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
        const auto baseline = run_auction(pool, plain, {});

        net::PathCache cache;
        OracleOptions cached_opt = base_opt;
        cached_opt.path_cache = &cache;
        const AcceptabilityOracle cached(inst.graph, inst.tm,
                                         ConstraintKind::kPerPairFailure, cached_opt);
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            AuctionOptions aopt;
            aopt.threads = threads;
            aopt.parallel_min_pivots = 2;
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
