#include "net/mcf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "helpers/graphs.hpp"
#include "net/maxflow.hpp"

namespace poc::net {
namespace {

TEST(GreedyRouting, RoutesFittingDemands) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 8.0}};
    const auto r = greedy_path_routing(sg, tm);
    ASSERT_TRUE(r.has_value());
    double carried = 0.0;
    for (const auto& [path, rate] : r->routes[0]) carried += rate;
    EXPECT_NEAR(carried, 8.0, 1e-9);
}

TEST(GreedyRouting, SplitsAcrossPathsWhenNeeded) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 13.0}};  // > any single path
    const auto r = greedy_path_routing(sg, tm);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->routes[0].size(), 2u);
}

TEST(GreedyRouting, FailsWhenDemandExceedsCut) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 16.0}};  // cut is 15
    EXPECT_FALSE(greedy_path_routing(sg, tm).has_value());
}

TEST(GreedyRouting, LinkLoadsRespectCapacity) {
    Graph g = test::ring(6, 5.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{3u}, 4.0}, {NodeId{1u}, NodeId{4u}, 2.0}};
    const auto r = greedy_path_routing(sg, tm);
    ASSERT_TRUE(r.has_value());
    const auto load = r->link_load(g);
    for (const LinkId l : g.all_links()) {
        EXPECT_LE(load[l.index()], g.link(l).capacity_gbps + 1e-9);
    }
}

TEST(GreedyRouting, UtilizationCapTightensCapacity) {
    Graph g = test::chain(2, 10.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{1u}, 6.0}};
    GreedyRoutingOptions opt;
    opt.utilization_cap = 0.5;  // only 5 usable
    EXPECT_FALSE(greedy_path_routing(sg, tm, opt).has_value());
    opt.utilization_cap = 0.7;
    EXPECT_TRUE(greedy_path_routing(sg, tm, opt).has_value());
}

TEST(GreedyRouting, ExclusionsForbidLinks) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 4.0}};
    CommodityExclusions excl{{LinkId{0u}}};  // cannot use 0-1
    GreedyRoutingOptions opt;
    opt.exclusions = &excl;
    const auto r = greedy_path_routing(sg, tm, opt);
    ASSERT_TRUE(r.has_value());
    for (const auto& [path, rate] : r->routes[0]) {
        for (const LinkId l : path) EXPECT_NE(l, LinkId{0u});
    }
}

TEST(GreedyRouting, EmptyMatrixTriviallyRoutable) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_TRUE(greedy_path_routing(sg, {}).has_value());
}

TEST(ConcurrentFlow, SingleCommodityApproachesMaxFlow) {
    Graph g = test::maxflow_classic();
    Subgraph sg(g);
    const double mf = max_flow(sg, NodeId{0u}, NodeId{5u}).value;
    TrafficMatrix tm{{NodeId{0u}, NodeId{5u}, mf}};
    const auto r = max_concurrent_flow(sg, tm, 0.05);
    // lambda* = 1 exactly; FPTAS guarantees >= (1-O(eps)).
    EXPECT_GE(r.lambda, 0.85);
    EXPECT_LE(r.lambda, 1.0 + 0.05);
}

TEST(ConcurrentFlow, ScaledRoutingIsCapacityFeasible) {
    Graph g = test::maxflow_classic();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{5u}, 10.0}, {NodeId{1u}, NodeId{4u}, 5.0}};
    const auto r = max_concurrent_flow(sg, tm, 0.1);
    const auto load = r.routing.link_load(g);
    for (const LinkId l : g.all_links()) {
        EXPECT_LE(load[l.index()], g.link(l).capacity_gbps * (1.0 + 1e-6));
    }
}

TEST(ConcurrentFlow, UnreachableDemandGivesZeroLambda) {
    Graph g;
    g.add_nodes(3);
    g.add_link(NodeId{0u}, NodeId{1u}, 5.0, 1.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 1.0}};
    EXPECT_DOUBLE_EQ(max_concurrent_flow(sg, tm, 0.1).lambda, 0.0);
}

TEST(ConcurrentFlow, EmptyMatrixIsInfinitelyFeasible) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_TRUE(std::isinf(max_concurrent_flow(sg, {}, 0.1).lambda));
}

TEST(ConcurrentFlow, LambdaScalesInverselyWithDemand) {
    Graph g = test::chain(2, 10.0);
    Subgraph sg(g);
    const auto r1 = max_concurrent_flow(sg, {{NodeId{0u}, NodeId{1u}, 5.0}}, 0.05);
    const auto r2 = max_concurrent_flow(sg, {{NodeId{0u}, NodeId{1u}, 10.0}}, 0.05);
    EXPECT_NEAR(r1.lambda / r2.lambda, 2.0, 0.2);
}

TEST(ConcurrentFlow, ExclusionsRespected) {
    Graph g = test::triangle();
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 2.0}};
    CommodityExclusions excl{{LinkId{0u}, LinkId{1u}}};  // only direct allowed
    const auto r = max_concurrent_flow(sg, tm, 0.1, &excl);
    EXPECT_GT(r.lambda, 0.0);
    for (const auto& [path, rate] : r.routing.routes[0]) {
        ASSERT_EQ(path.size(), 1u);
        EXPECT_EQ(path[0], LinkId{2u});
    }
}

TEST(IsRoutable, AgreesWithObviousCases) {
    Graph g = test::triangle();
    Subgraph sg(g);
    EXPECT_TRUE(is_routable(sg, {{NodeId{0u}, NodeId{2u}, 8.0}}));
    EXPECT_FALSE(is_routable(sg, {{NodeId{0u}, NodeId{2u}, 50.0}}));
}

TEST(IsRoutable, FptasFallbackCatchesGreedyMisses) {
    // Two commodities that fit fractionally but can defeat a greedy
    // order: cross traffic on a ring near capacity.
    Graph g = test::ring(4, 10.0);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{2u}, 19.0}};
    // Max flow 0->2 is 20 (two 2-hop paths of cap 10): feasible.
    EXPECT_TRUE(is_routable(sg, tm, 0.05));
}

TEST(GreedyRouting, FootprintPinsTheRun) {
    // Removing active links outside the footprint leaves the whole run
    // as it was: the same routes, the same verdict, the same footprint.
    // Tie-heavy multigraphs (equal lengths and capacities, parallel
    // links) and demands above one link's capacity, so that Yen's spur
    // searches run and tie often.
    util::Rng rng(97);
    int pinned_accepts = 0;
    int pinned_rejects = 0;
    for (int round = 0; round < 200; ++round) {
        const auto n = 4 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{5}));
        Graph g;
        g.add_nodes(n);
        for (std::size_t e = 0; e < 2 * n; ++e) {
            const auto a = e < n - 1 ? e : static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
            auto b = e < n - 1 ? e + 1 : static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
            if (a == b) b = (b + 1) % n;
            const auto parallel = 1 + rng.uniform_int(std::uint64_t{3});
            for (std::uint64_t k = 0; k < parallel; ++k) {
                g.add_link(NodeId{a}, NodeId{b}, 10.0, 1.0);
            }
        }
        TrafficMatrix tm;
        for (int d = 0; d < 3; ++d) {
            const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
            const auto t = (s + 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n - 1}))) % n;
            tm.push_back({NodeId{s}, NodeId{t}, rng.uniform(2.0, 25.0)});
        }
        Subgraph sg(g);
        for (const LinkId l : g.all_links()) {
            if (rng.bernoulli(0.2)) sg.set_active(l, false);
        }
        GreedyLog log;
        GreedyRoutingOptions opt;
        opt.log = &log;
        const auto routing = greedy_path_routing(sg, tm, opt);
        std::vector<LinkId> footprint = log.footprint;
        std::sort(footprint.begin(), footprint.end());
        footprint.erase(std::unique(footprint.begin(), footprint.end()), footprint.end());

        Subgraph smaller = sg;
        for (const LinkId l : sg.active_links()) {
            if (!std::binary_search(footprint.begin(), footprint.end(), l) && rng.bernoulli(0.5)) {
                smaller.set_active(l, false);
            }
        }
        const auto rerun = greedy_path_routing(smaller, tm, opt);
        std::vector<LinkId> again = log.footprint;
        std::sort(again.begin(), again.end());
        again.erase(std::unique(again.begin(), again.end()), again.end());
        ASSERT_EQ(rerun.has_value(), routing.has_value()) << "round " << round;
        if (routing) {
            EXPECT_EQ(rerun->routes, routing->routes) << "round " << round;
        }
        EXPECT_EQ(again, footprint) << "round " << round;
        ++(routing ? pinned_accepts : pinned_rejects);
    }
    EXPECT_GT(pinned_accepts, 20);
    EXPECT_GT(pinned_rejects, 20);
}

TEST(GreedyRouting, ResumeAtEveryDemandEqualsFullRun) {
    // A run over a subset of a logged run's set that replays any intact
    // prefix of the log is the full run over the subset: the same
    // verdict, routes, footprint and log. Tie-heavy multigraphs, demands
    // above one link's capacity (so Yen steps run), a utilization cap
    // below 1 in some rounds and per-demand exclusions in others; the
    // subset is sometimes the logged set itself, and some logs are of
    // runs that failed part way.
    util::Rng rng(331);
    int resumed_accepts = 0;
    int resumed_rejects = 0;
    int broken_prefixes = 0;
    for (int round = 0; round < 200; ++round) {
        const auto n = 4 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{5}));
        Graph g;
        g.add_nodes(n);
        for (std::size_t e = 0; e < 2 * n; ++e) {
            const auto a = e < n - 1 ? e : static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
            auto b = e < n - 1 ? e + 1 : static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
            if (a == b) b = (b + 1) % n;
            const auto parallel = 1 + rng.uniform_int(std::uint64_t{3});
            for (std::uint64_t k = 0; k < parallel; ++k) {
                g.add_link(NodeId{a}, NodeId{b}, 10.0, 1.0);
            }
        }
        TrafficMatrix tm;
        for (int d = 0; d < 5; ++d) {
            const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
            const auto t = (s + 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n - 1}))) % n;
            tm.push_back({NodeId{s}, NodeId{t}, d == 4 ? 0.0 : rng.uniform(2.0, 18.0)});
        }
        GreedyRoutingOptions opt;
        if (round % 3 == 1) opt.utilization_cap = 0.7;
        CommodityExclusions exclusions(tm.size());
        if (round % 3 == 2) {
            for (auto& excluded : exclusions) {
                excluded.push_back(LinkId{static_cast<std::size_t>(
                    rng.uniform_int(std::uint64_t{g.link_count()}))});
            }
            opt.exclusions = &exclusions;
        }
        Subgraph sg(g);
        for (const LinkId l : g.all_links()) {
            if (rng.bernoulli(0.1)) sg.set_active(l, false);
        }
        GreedyLog log;
        opt.log = &log;
        (void)greedy_path_routing(sg, tm, opt);

        Subgraph smaller = sg;
        if (round % 4 != 0) {
            for (const LinkId l : sg.active_links()) {
                if (rng.bernoulli(0.1)) smaller.set_active(l, false);
            }
        }
        const std::size_t intact = log.intact_demands(smaller);
        ASSERT_LE(intact, log.demands.size());
        if (intact < log.demands.size()) ++broken_prefixes;

        GreedyLog want_log;
        opt.log = &want_log;
        const auto want = greedy_path_routing(smaller, tm, opt);
        for (std::size_t j = 0; j <= intact; ++j) {
            GreedyLog got_log;
            opt.log = &got_log;
            opt.resume = &log;
            opt.resume_demands = j;
            const auto got = greedy_path_routing(smaller, tm, opt);
            ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round << " j " << j;
            if (want) {
                EXPECT_EQ(got->routes, want->routes) << "round " << round << " j " << j;
            }
            // The logs hold the footprints.
            EXPECT_EQ(got_log.footprint, want_log.footprint) << "round " << round << " j " << j;
            EXPECT_EQ(got_log, want_log) << "round " << round << " j " << j;
            if (j > 0) ++(want ? resumed_accepts : resumed_rejects);
        }
        opt.resume = nullptr;
        opt.resume_demands = 0;
    }
    EXPECT_GT(resumed_accepts, 100);
    EXPECT_GT(resumed_rejects, 20);
    EXPECT_GT(broken_prefixes, 50);
}

}  // namespace
}  // namespace poc::net
