#include "core/flow_sim.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "helpers/graphs.hpp"
#include "net/path_cache.hpp"
#include "util/rng.hpp"

namespace poc::core {
namespace {

TEST(FlowSim, RoutesAndReportsUtilization) {
    net::Graph g = test::triangle();
    net::Subgraph sg(g);
    const net::TrafficMatrix tm{{net::NodeId{0u}, net::NodeId{1u}, 5.0}};
    const FlowReport r = simulate_flows(sg, tm);
    EXPECT_TRUE(r.fully_routed);
    EXPECT_NEAR(r.total_offered_gbps, 5.0, 1e-9);
    EXPECT_NEAR(r.total_routed_gbps, 5.0, 1e-9);
    EXPECT_NEAR(r.max_utilization, 0.5, 1e-9);  // 5 over the cap-10 direct link
    EXPECT_NEAR(r.link_load_gbps[0], 5.0, 1e-9);
}

TEST(FlowSim, StretchOneOnShortestPath) {
    // Two-hop route (2 km) clearly beats the 4 km direct link even
    // under the router's hop-penalized congestion metric.
    net::Graph g;
    const auto n0 = g.add_node();
    const auto n1 = g.add_node();
    const auto n2 = g.add_node();
    g.add_link(n0, n1, 10.0, 1.0);
    g.add_link(n1, n2, 10.0, 1.0);
    g.add_link(n0, n2, 10.0, 4.0);
    net::Subgraph sg(g);
    const FlowReport r = simulate_flows(sg, {{n0, n2, 2.0}});
    EXPECT_NEAR(r.stretch, 1.0, 1e-6);
    EXPECT_NEAR(r.mean_path_km, 2.0, 1e-6);  // via node 1
}

TEST(FlowSim, StretchAboveOneWhenSpilling) {
    net::Graph g = test::triangle();
    net::Subgraph sg(g);
    // 13 > 10: must also use the longer direct link.
    const FlowReport r = simulate_flows(sg, {{net::NodeId{0u}, net::NodeId{2u}, 13.0}});
    EXPECT_TRUE(r.fully_routed);
    EXPECT_GT(r.stretch, 1.0);
}

TEST(FlowSim, PartialRoutingReported) {
    net::Graph g = test::chain(2, 10.0);
    net::Subgraph sg(g);
    const FlowReport r = simulate_flows(sg, {{net::NodeId{0u}, net::NodeId{1u}, 25.0}});
    EXPECT_FALSE(r.fully_routed);
    EXPECT_LE(r.total_routed_gbps, 10.0 + 1e-6);
}

TEST(FlowSim, VirtualShareTracksVirtualLinks) {
    net::Graph g = test::triangle();
    net::Subgraph sg(g);
    std::vector<bool> is_virtual(g.link_count(), false);
    is_virtual[2] = true;  // the direct 0-2 link
    // Demand 13 forces spill onto the virtual link.
    const FlowReport r =
        simulate_flows(sg, {{net::NodeId{0u}, net::NodeId{2u}, 13.0}}, is_virtual);
    EXPECT_GT(r.virtual_share, 0.0);
    EXPECT_LT(r.virtual_share, 1.0);
}

TEST(FlowSim, ZeroVirtualShareWithoutFlags) {
    net::Graph g = test::triangle();
    net::Subgraph sg(g);
    const FlowReport r = simulate_flows(sg, {{net::NodeId{0u}, net::NodeId{1u}, 1.0}});
    EXPECT_DOUBLE_EQ(r.virtual_share, 0.0);
}

TEST(FlowSim, EmptyMatrixCleanReport) {
    net::Graph g = test::triangle();
    net::Subgraph sg(g);
    const FlowReport r = simulate_flows(sg, {});
    EXPECT_TRUE(r.fully_routed);
    EXPECT_DOUBLE_EQ(r.total_routed_gbps, 0.0);
    EXPECT_DOUBLE_EQ(r.max_utilization, 0.0);
}

TEST(FlowSim, RejectsIsVirtualShorterThanLinkCount) {
    // The is_virtual vector is indexed by link id; a short vector would
    // silently misattribute virtual share (or read out of bounds), so
    // the contract requires empty-or-exact-length.
    net::Graph g = test::triangle();
    net::Subgraph sg(g);
    const net::TrafficMatrix tm{{net::NodeId{0u}, net::NodeId{1u}, 1.0}};
    std::vector<bool> short_mask(g.link_count() - 1, false);
    EXPECT_THROW(simulate_flows(sg, tm, short_mask), util::ContractViolation);
    std::vector<bool> long_mask(g.link_count() + 1, false);
    EXPECT_THROW(simulate_flows(sg, tm, long_mask), util::ContractViolation);
}

TEST(FlowSim, LoadsNeverExceedCapacity) {
    util::Rng rng(3);
    net::Graph g = test::random_connected(rng, 8, 8);
    net::Subgraph sg(g);
    net::TrafficMatrix tm;
    for (std::size_t i = 0; i < 4; ++i) {
        tm.push_back({net::NodeId{i}, net::NodeId{i + 3}, rng.uniform(0.5, 3.0)});
    }
    const FlowReport r = simulate_flows(sg, tm);
    for (const net::LinkId l : g.all_links()) {
        EXPECT_LE(r.link_load_gbps[l.index()], g.link(l).capacity_gbps * (1.0 + 1e-6));
    }
    EXPECT_LE(r.max_utilization, 1.0 + 1e-6);
}

TEST(FlowSim, ConcurrentFlowFallbackCapsOverRoutedDemands) {
    // Six parallel links of capacity 2: the demand of 9 fits the
    // subgraph (12 gbps total) but not greedy's k=4 candidate paths
    // (4 x 2 = 8 < 9), so simulate_flows must take the
    // max_concurrent_flow fallback. That routing carries
    // lambda * volume per demand with lambda > 1 here, i.e. it
    // over-routes — the report must cap each demand at its offered
    // volume.
    net::Graph g;
    const auto s = g.add_node("s");
    const auto t = g.add_node("t");
    for (int i = 0; i < 6; ++i) g.add_link(s, t, 2.0, 1.0);
    net::Subgraph sg(g);
    const net::TrafficMatrix tm{{s, t, 9.0}};

    // Precondition for the test to mean anything: greedy really fails
    // and the concurrent flow really over-provisions.
    ASSERT_FALSE(net::greedy_path_routing(sg, tm).has_value());
    const auto cf = net::max_concurrent_flow(sg, tm, 0.1);
    ASSERT_GE(cf.lambda, 1.0);
    double uncapped = 0.0;
    for (const auto& [path, rate] : cf.routing.routes[0]) uncapped += rate;
    ASSERT_GT(uncapped, 9.0);

    const FlowReport r = simulate_flows(sg, tm);
    EXPECT_TRUE(r.fully_routed);
    // Capped exactly at the offered volume, never over-reported.
    EXPECT_NEAR(r.total_routed_gbps, 9.0, 1e-9);
    EXPECT_LE(r.total_routed_gbps, r.total_offered_gbps + 1e-12);
    double load_sum = 0.0;
    for (const net::LinkId l : g.all_links()) {
        EXPECT_LE(r.link_load_gbps[l.index()], g.link(l).capacity_gbps * (1.0 + 1e-6));
        load_sum += r.link_load_gbps[l.index()];
    }
    EXPECT_NEAR(load_sum, 9.0, 1e-9);  // single-hop paths
}

TEST(FlowSim, ConcurrentFlowFallbackReportsPartialRouting) {
    // Infeasible for both oracles: the fallback's lambda < 1 routing is
    // reported as-is (no capping needed, fully_routed false).
    net::Graph g = test::chain(2, 10.0);
    net::Subgraph sg(g);
    const net::TrafficMatrix tm{{net::NodeId{0u}, net::NodeId{1u}, 25.0}};
    ASSERT_FALSE(net::greedy_path_routing(sg, tm).has_value());
    const FlowReport r = simulate_flows(sg, tm);
    EXPECT_FALSE(r.fully_routed);
    EXPECT_GT(r.total_routed_gbps, 0.0);
    EXPECT_LE(r.total_routed_gbps, 10.0 + 1e-6);
}

TEST(FlowSim, ConcurrentFlowFallbackRoutesTheConnectedDemands) {
    // The six-parallel-link instance above, plus a demand to a node the
    // backbone cuts off. max_concurrent_flow over the whole matrix is
    // lambda 0 with no routes; the fallback routes the connected demand
    // exactly as it would alone and leaves the cut-off one unrouted.
    net::Graph g;
    const auto s = g.add_node("s");
    const auto t = g.add_node("t");
    const auto cut_off = g.add_node("u");
    for (int i = 0; i < 6; ++i) g.add_link(s, t, 2.0, 1.0);
    net::Subgraph sg(g);
    const net::TrafficMatrix tm{{s, cut_off, 1.0}, {s, t, 9.0}};
    ASSERT_FALSE(net::greedy_path_routing(sg, tm).has_value());
    ASSERT_EQ(net::max_concurrent_flow(sg, tm, 0.1).lambda, 0.0);

    const FlowReport r = simulate_flows(sg, tm);
    const FlowReport alone = simulate_flows(sg, {{s, t, 9.0}});
    EXPECT_FALSE(r.fully_routed);
    EXPECT_DOUBLE_EQ(r.total_offered_gbps, 10.0);
    EXPECT_NEAR(r.total_routed_gbps, 9.0, 1e-9);
    EXPECT_EQ(r.total_routed_gbps, alone.total_routed_gbps);
    EXPECT_EQ(r.link_load_gbps, alone.link_load_gbps);
    EXPECT_EQ(r.max_utilization, alone.max_utilization);
    EXPECT_EQ(r.stretch, alone.stretch);
}

TEST(FlowSim, FastPathOptionsAreBitIdentical) {
    util::Rng rng(5);
    net::Graph g = test::random_connected(rng, 16, 10);
    net::Subgraph sg(g);
    net::TrafficMatrix tm;
    for (std::size_t i = 0; i < 24; ++i) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{16}));
        auto b = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{16}));
        if (b == a) b = (b + 1) % 16;
        tm.push_back({net::NodeId{a}, net::NodeId{b}, rng.uniform(0.2, 2.0)});
    }
    std::vector<bool> is_virtual(g.link_count(), false);
    is_virtual[0] = true;

    const FlowReport base = simulate_flows(sg, tm, is_virtual);

    net::PathCache cache;
    FlowSimOptions cached;
    cached.path_cache = &cache;
    for (int pass = 0; pass < 2; ++pass) {  // cold cache, then warm
        const FlowReport r = simulate_flows(sg, tm, is_virtual, cached);
        // Exact equality across the board: the fast path must be
        // bit-identical to the default serial computation.
        EXPECT_EQ(r.total_offered_gbps, base.total_offered_gbps);
        EXPECT_EQ(r.total_routed_gbps, base.total_routed_gbps);
        EXPECT_EQ(r.fully_routed, base.fully_routed);
        EXPECT_EQ(r.max_utilization, base.max_utilization);
        EXPECT_EQ(r.mean_utilization, base.mean_utilization);
        EXPECT_EQ(r.link_load_gbps, base.link_load_gbps);
        EXPECT_EQ(r.mean_path_km, base.mean_path_km);
        EXPECT_EQ(r.mean_shortest_km, base.mean_shortest_km);
        EXPECT_EQ(r.stretch, base.stretch);
        EXPECT_EQ(r.virtual_share, base.virtual_share);
    }
    EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);
}

}  // namespace
}  // namespace poc::core
