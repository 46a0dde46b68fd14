// Cross-algorithm consistency properties over randomized graphs: the
// independent implementations in poc::net must agree with each other
// wherever their guarantees overlap.
#include <gtest/gtest.h>

#include <algorithm>

#include "helpers/graphs.hpp"
#include "net/connectivity.hpp"
#include "net/failure.hpp"
#include "net/ksp.hpp"
#include "net/maxflow.hpp"
#include "net/mcf.hpp"

namespace poc::net {
namespace {

class NetProperties : public ::testing::TestWithParam<std::uint64_t> {
protected:
    util::Rng rng_{GetParam()};
};

TEST_P(NetProperties, GreedyRoutingSuccessImpliesHighConcurrentFlow) {
    // Greedy success is a feasibility certificate, so the FPTAS (a
    // (1-eps)^2 lower bound on the optimum) must come out near >= 1.
    Graph g = test::random_connected(rng_, 10, 12);
    Subgraph sg(g);
    TrafficMatrix tm;
    for (int d = 0; d < 4; ++d) {
        const auto s = static_cast<std::size_t>(rng_.uniform_int(std::uint64_t{10}));
        auto t = static_cast<std::size_t>(rng_.uniform_int(std::uint64_t{10}));
        if (s == t) t = (t + 1) % 10;
        tm.push_back({NodeId{s}, NodeId{t}, rng_.uniform(0.5, 2.5)});
    }
    if (!greedy_path_routing(sg, tm)) return;  // only testing the implication
    const auto cf = max_concurrent_flow(sg, tm, 0.1);
    EXPECT_GE(cf.lambda, 0.75) << "FPTAS strongly contradicts greedy feasibility";
}

TEST_P(NetProperties, ConcurrentFlowNeverExceedsSingleCommodityMaxFlow) {
    // For a single commodity, lambda * demand <= max flow.
    Graph g = test::random_connected(rng_, 9, 10);
    Subgraph sg(g);
    const NodeId s{0u};
    const NodeId t{8u};
    const double demand = rng_.uniform(1.0, 10.0);
    const double mf = max_flow(sg, s, t).value;
    const auto cf = max_concurrent_flow(sg, {{s, t, demand}}, 0.05);
    EXPECT_LE(cf.lambda * demand, mf * (1.0 + 1e-6));
}

TEST_P(NetProperties, BridgesDisconnectTheirEndpoints) {
    Graph g = test::random_connected(rng_, 12, 6);
    Subgraph sg(g);
    for (const LinkId b : find_bridges(sg)) {
        Subgraph cut = sg;
        cut.set_active(b, false);
        const Components comp = connected_components(cut);
        EXPECT_FALSE(comp.same(g.link(b).a, g.link(b).b));
        cut.set_active(b, true);
    }
}

TEST_P(NetProperties, NonBridgesKeepEndpointsConnected) {
    Graph g = test::random_connected(rng_, 12, 8);
    Subgraph sg(g);
    const auto bridges = find_bridges(sg);
    for (const LinkId l : g.all_links()) {
        if (std::find(bridges.begin(), bridges.end(), l) != bridges.end()) continue;
        Subgraph cut = sg;
        cut.set_active(l, false);
        EXPECT_TRUE(connected_components(cut).same(g.link(l).a, g.link(l).b))
            << "non-bridge " << l.value() << " disconnected its endpoints";
    }
}

TEST_P(NetProperties, TwoDisjointPathsIffNoBridgeSeparates) {
    // Menger + Tarjan agreement: link-disjoint path count >= 2 exactly
    // when the endpoints stay connected after removing every bridge.
    Graph g = test::random_connected(rng_, 10, 7);
    Subgraph sg(g);
    Subgraph no_bridges = sg;
    for (const LinkId b : find_bridges(sg)) no_bridges.set_active(b, false);
    const Components comp = connected_components(no_bridges);
    for (std::size_t v = 1; v < g.node_count(); ++v) {
        const bool two_paths = link_disjoint_path_count(sg, NodeId{0u}, NodeId{v}) >= 2;
        EXPECT_EQ(two_paths, comp.same(NodeId{0u}, NodeId{v})) << "node " << v;
    }
}

TEST_P(NetProperties, YenPathsWeightsMatchRecomputation) {
    Graph g = test::random_connected(rng_, 10, 10);
    Subgraph sg(g);
    const auto w = weight_by_length(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{9u}, w, 5);
    for (const WeightedPath& p : paths) {
        double total = 0.0;
        for (const LinkId l : p.links) total += w(l);
        EXPECT_NEAR(total, p.weight, 1e-9);
    }
}

TEST_P(NetProperties, SingleFailureImpliesPerLinkFeasibility) {
    // Directly verify the exhaustive oracle's meaning: if the set
    // satisfies single-failure, deleting any one link leaves the matrix
    // routable.
    Graph g = test::random_connected(rng_, 8, 8);
    Subgraph sg(g);
    TrafficMatrix tm{{NodeId{0u}, NodeId{7u}, rng_.uniform(0.5, 2.0)}};
    if (!satisfies_single_failure(sg, tm)) return;
    for (const LinkId l : g.all_links()) {
        Subgraph cut = sg;
        cut.set_active(l, false);
        EXPECT_TRUE(is_routable(cut, tm, 0.1)) << "link " << l.value();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetProperties,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

}  // namespace
}  // namespace poc::net
