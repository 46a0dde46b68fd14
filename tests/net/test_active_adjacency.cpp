// Differential tests for net::ActiveAdjacency (DESIGN.md §6): searches
// and greedy routing over one set's compact incidence lists must match
// the same code over the graph's full lists, and a GreedyWorkspace
// reused across masks and graphs must match a fresh one.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "net/failure.hpp"
#include "net/ksp.hpp"
#include "net/mcf.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace poc::net {
namespace {

/// A connected random multigraph: a path through every node plus
/// extra links, each pair drawn with 1-4 parallel links of equal
/// capacity and length so that searches tie often.
Graph random_multigraph(util::Rng& rng, std::size_t n) {
    Graph g;
    g.add_nodes(n);
    for (std::size_t e = 0; e < 2 * n; ++e) {
        const auto a = e < n - 1 ? e : static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto b = e < n - 1 ? e + 1 : static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (a == b) b = (b + 1) % n;
        const double length = rng.bernoulli(0.5) ? 1.0 : rng.uniform(1.0, 3.0);
        const auto parallel = 1 + rng.uniform_int(std::uint64_t{4});
        for (std::uint64_t k = 0; k < parallel; ++k) {
            g.add_link(NodeId{a}, NodeId{b}, 10.0, length);
        }
    }
    return g;
}

Subgraph random_mask(util::Rng& rng, const Graph& g, double keep) {
    Subgraph sg(g);
    for (const LinkId l : g.all_links()) {
        if (!rng.bernoulli(keep)) sg.set_active(l, false);
    }
    return sg;
}

TrafficMatrix random_demands(util::Rng& rng, std::size_t n) {
    TrafficMatrix tm;
    for (int d = 0; d < 3; ++d) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        const auto t = (s + 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n - 1}))) % n;
        // Above one link's capacity often, so Yen's fallback runs.
        tm.push_back({NodeId{s}, NodeId{t}, rng.uniform(2.0, 25.0)});
    }
    return tm;
}

std::vector<LinkId> filtered_incident(const Subgraph& sg, NodeId n) {
    std::vector<LinkId> out;
    for (const LinkId l : sg.graph().incident(n)) {
        if (sg.is_active(l)) out.push_back(l);
    }
    return out;
}

TEST(ActiveAdjacency, ListsAreTheFilteredIncidentLists) {
    util::Rng rng(2401);
    ActiveAdjacency reused;
    for (int round = 0; round < 60; ++round) {
        const Graph g = random_multigraph(rng, 3 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{8})));
        const Subgraph sg = random_mask(rng, g, round % 2 == 0 ? 0.9 : 0.2);
        const ActiveAdjacency fresh(sg);
        reused.assign(sg);
        for (const ActiveAdjacency* adj : {&fresh, static_cast<const ActiveAdjacency*>(&reused)}) {
            EXPECT_EQ(adj->graph(), &g);
            const auto active = adj->active_links();
            EXPECT_EQ(std::vector<LinkId>(active.begin(), active.end()), sg.active_links());
            for (std::size_t v = 0; v < g.node_count(); ++v) {
                const auto list = adj->incident(NodeId{v});
                EXPECT_EQ(std::vector<LinkId>(list.begin(), list.end()),
                          filtered_incident(sg, NodeId{v}))
                    << "round " << round << " node " << v;
            }
        }
    }
    // Every link inactive: every list is empty.
    const Graph g = random_multigraph(rng, 5);
    reused.assign(Subgraph(g, {}));
    EXPECT_TRUE(reused.active_links().empty());
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        EXPECT_TRUE(reused.incident(NodeId{v}).empty());
    }
}

TEST(ActiveAdjacency, SearchesMatchTheFullLists) {
    // Trees and point-to-point paths over the compact lists equal those
    // over the full lists, also when the lists were built from a larger
    // set than the one searched; so do Yen's k paths over the larger
    // set's lists and over the searched set's own (the LinkWeight
    // overload builds those).
    util::Rng rng(2402);
    for (int round = 0; round < 40; ++round) {
        const Graph g = random_multigraph(rng, 4 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{6})));
        const Subgraph outer = random_mask(rng, g, 0.8);
        Subgraph sg = outer;
        for (const LinkId l : outer.active_links()) {
            if (rng.bernoulli(0.3)) sg.set_active(l, false);
        }
        const ActiveAdjacency own(sg);
        const ActiveAdjacency wider(outer);
        LinkWeightArray weight(g.link_count());
        for (const LinkId l : g.all_links()) weight[l.index()] = g.link(l).length_km;
        const LinkWeight as_function = [&](LinkId l) { return weight[l.index()]; };

        SsspWorkspace full_ws;
        SsspWorkspace adj_ws;
        for (std::size_t s = 0; s < g.node_count(); ++s) {
            dijkstra_metric_into(sg, NodeId{s}, SsspMetric::kLength, full_ws);
            const ShortestPathTree full = full_ws.to_tree();
            for (const ActiveAdjacency* adj : {&own, &wider}) {
                dijkstra_metric_into(sg, *adj, NodeId{s}, SsspMetric::kLength, adj_ws);
                const ShortestPathTree got = adj_ws.to_tree();
                EXPECT_EQ(got.dist, full.dist);
                EXPECT_EQ(got.parent_link, full.parent_link);
                EXPECT_EQ(got.pred_node_, full.pred_node_);
            }
            for (std::size_t t = 0; t < g.node_count(); ++t) {
                if (t == s) continue;
                const auto want = shortest_path(sg, NodeId{s}, NodeId{t}, as_function, full_ws);
                const auto got = shortest_path(sg, wider, NodeId{s}, NodeId{t}, weight, adj_ws);
                ASSERT_EQ(got.has_value(), want.has_value());
                if (!want) continue;
                EXPECT_EQ(got->links, want->links);
                EXPECT_EQ(got->weight, want->weight);
                const auto yen_full = yen_k_shortest(sg, NodeId{s}, NodeId{t}, as_function, 4);
                const auto yen_adj = yen_k_shortest(sg, wider, NodeId{s}, NodeId{t}, weight, 4,
                                                    adj_ws, *want);
                ASSERT_EQ(yen_adj.size(), yen_full.size());
                for (std::size_t k = 0; k < yen_full.size(); ++k) {
                    EXPECT_EQ(yen_adj[k].links, yen_full[k].links);
                    EXPECT_EQ(yen_adj[k].weight, yen_full[k].weight);
                }
            }
        }
    }
}

struct GreedyRun {
    std::optional<CommodityRouting> routing;
    std::vector<LinkId> footprint;
};

GreedyRun run_greedy(const Subgraph& sg, const TrafficMatrix& tm, GreedyRoutingOptions opt,
                     GreedyWorkspace* ws) {
    GreedyRun run;
    GreedyLog log;
    opt.log = &log;
    opt.workspace = ws;
    run.routing = greedy_path_routing(sg, tm, opt);
    run.footprint = std::move(log.footprint);
    return run;
}

void expect_same(const GreedyRun& got, const GreedyRun& want, int round) {
    ASSERT_EQ(got.routing.has_value(), want.routing.has_value()) << "round " << round;
    if (want.routing) {
        EXPECT_EQ(got.routing->routes, want.routing->routes) << "round " << round;
    }
    EXPECT_EQ(got.footprint, want.footprint) << "round " << round;
}

TEST(ActiveAdjacency, GreedyMatchesTheFullListsAndAFreshWorkspace) {
    // Three runs per query: over the full lists (a workspace whose
    // incidence lists every link of the graph), over a fresh workspace
    // (greedy builds the query's lists itself), and over one workspace
    // reused across every query and graph, its per-link arrays poisoned
    // with NaN first. Greedy writes every active link's entries before
    // reading them, so no NaN may reach a result (a NaN weight would
    // fail the search's non-negativity check), and no stale value of an
    // earlier graph or mask either.
    util::Rng rng(2403);
    GreedyWorkspace reused;
    int accepts = 0;
    int rejects = 0;
    int multipath = 0;
    int excluded = 0;
    for (int round = 0; round < 300; ++round) {
        // Two graph shapes alternate, so the reused arrays shrink and grow.
        const std::size_t n = round % 2 == 0 ? 5 : 9;
        const Graph g = random_multigraph(rng, n);
        const Subgraph sg = random_mask(rng, g, round % 3 == 0 ? 0.35 : 0.9);
        const TrafficMatrix tm = random_demands(rng, n);
        GreedyRoutingOptions opt;
        opt.utilization_cap = round % 4 == 0 ? 0.65 : 1.0;
        CommodityExclusions primaries;
        if (round % 5 == 0) {
            // kPerPairFailure's second run: each demand avoids its primary.
            primaries = primary_paths(sg, tm);
            opt.exclusions = &primaries;
            ++excluded;
        }

        GreedyWorkspace full;
        full.incidence.assign(Subgraph(g));
        for (std::size_t v = 0; v < n; ++v) {
            const auto list = full.incidence.incident(NodeId{v});
            const auto want_list = g.incident(NodeId{v});
            ASSERT_TRUE(std::equal(list.begin(), list.end(), want_list.begin(), want_list.end()));
        }
        const GreedyRun want = run_greedy(sg, tm, opt, &full);
        const GreedyRun fresh = run_greedy(sg, tm, opt, nullptr);

        constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
        std::fill(reused.residual.begin(), reused.residual.end(), kNaN);
        std::fill(reused.weight.begin(), reused.weight.end(), kNaN);
        reused.incidence.assign(sg);
        const GreedyRun again = run_greedy(sg, tm, opt, &reused);

        expect_same(fresh, want, round);
        expect_same(again, want, round);
        if (want.routing) {
            ++accepts;
            for (const auto& routes : want.routing->routes) {
                if (routes.size() > 1) ++multipath;
            }
        } else {
            ++rejects;
        }
    }
    EXPECT_GT(accepts, 50);
    EXPECT_GT(rejects, 50);
    EXPECT_GT(multipath, 20);  // Yen's fallback placed more than one path
    EXPECT_GT(excluded, 50);
}

#if POC_OBS_ENABLED
TEST(ActiveAdjacency, ScannedCountsOnlyActiveEntries) {
    // net.sssp.scanned adds each settled node's list length: over the
    // compact lists it is the active entries, over the full lists every
    // incident entry; settled nodes are the same either way.
    util::Rng rng(2404);
    const Graph g = random_multigraph(rng, 12);
    const Subgraph sg = random_mask(rng, g, 0.3);
    const ActiveAdjacency adj(sg);
    auto& scanned = obs::registry().counter("net.sssp.scanned");
    auto& settled = obs::registry().counter("net.sssp.settled");
    SsspWorkspace ws;

    const std::uint64_t scanned0 = scanned.value();
    const std::uint64_t settled0 = settled.value();
    dijkstra_metric_into(sg, NodeId{0u}, SsspMetric::kLength, ws);
    const std::uint64_t full_scanned = scanned.value() - scanned0;
    const std::uint64_t full_settled = settled.value() - settled0;

    dijkstra_metric_into(sg, adj, NodeId{0u}, SsspMetric::kLength, ws);
    const std::uint64_t adj_scanned = scanned.value() - scanned0 - full_scanned;
    const std::uint64_t adj_settled = settled.value() - settled0 - full_settled;

    std::uint64_t want_full = 0;
    std::uint64_t want_adj = 0;
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        if (!ws.reachable(NodeId{v})) continue;
        want_full += g.incident(NodeId{v}).size();
        want_adj += adj.incident(NodeId{v}).size();
    }
    EXPECT_EQ(adj_settled, full_settled);
    EXPECT_EQ(full_scanned, want_full);
    EXPECT_EQ(adj_scanned, want_adj);
    EXPECT_LT(adj_scanned, full_scanned);
}
#endif

}  // namespace
}  // namespace poc::net
