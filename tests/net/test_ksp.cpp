#include "net/ksp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "helpers/graphs.hpp"
#include "net/shortest_path.hpp"
#include "util/rng.hpp"

namespace poc::net {
namespace {

/// Diamond: 0-1-3 (cost 2), 0-2-3 (cost 3), plus direct 0-3 (cost 4).
Graph diamond() {
    Graph g;
    g.add_nodes(4);
    g.add_link(NodeId{0u}, NodeId{1u}, 10.0, 1.0);  // link 0
    g.add_link(NodeId{1u}, NodeId{3u}, 10.0, 1.0);  // link 1
    g.add_link(NodeId{0u}, NodeId{2u}, 10.0, 1.0);  // link 2
    g.add_link(NodeId{2u}, NodeId{3u}, 10.0, 2.0);  // link 3
    g.add_link(NodeId{0u}, NodeId{3u}, 10.0, 4.0);  // link 4
    return g;
}

TEST(Yen, FindsPathsInWeightOrder) {
    Graph g = diamond();
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{3u}, weight_by_length(g), 3);
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_DOUBLE_EQ(paths[0].weight, 2.0);
    EXPECT_DOUBLE_EQ(paths[1].weight, 3.0);
    EXPECT_DOUBLE_EQ(paths[2].weight, 4.0);
    EXPECT_EQ(paths[0].links, (std::vector<LinkId>{LinkId{0u}, LinkId{1u}}));
    EXPECT_EQ(paths[2].links, (std::vector<LinkId>{LinkId{4u}}));
}

TEST(Yen, ReturnsFewerWhenPathSpaceExhausted) {
    Graph g = diamond();
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{3u}, weight_by_length(g), 10);
    EXPECT_EQ(paths.size(), 3u);  // only 3 loopless paths exist
}

TEST(Yen, SinglePathGraph) {
    Graph g = test::chain(4);
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{3u}, weight_unit(), 5);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0].links.size(), 3u);
}

TEST(Yen, DisconnectedYieldsEmpty) {
    Graph g;
    g.add_nodes(2);
    Subgraph sg(g);
    EXPECT_TRUE(yen_k_shortest(sg, NodeId{0u}, NodeId{1u}, weight_unit(), 3).empty());
}

TEST(Yen, PathsAreLoopless) {
    util::Rng rng(5);
    Graph g = test::random_connected(rng, 10, 12);
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{9u}, weight_by_length(g), 6);
    ASSERT_FALSE(paths.empty());
    for (const auto& wp : paths) {
        const auto nodes = path_nodes(g, NodeId{0u}, wp.links);
        std::set<NodeId> unique(nodes.begin(), nodes.end());
        EXPECT_EQ(unique.size(), nodes.size()) << "loop detected";
        EXPECT_EQ(nodes.back(), NodeId{9u});
    }
}

TEST(Yen, PathsAreDistinctAndSorted) {
    util::Rng rng(6);
    Graph g = test::random_connected(rng, 10, 14);
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{7u}, weight_by_length(g), 8);
    for (std::size_t i = 0; i + 1 < paths.size(); ++i) {
        EXPECT_LE(paths[i].weight, paths[i + 1].weight + 1e-12);
        EXPECT_NE(paths[i].links, paths[i + 1].links);
    }
}

TEST(Yen, FirstPathMatchesDijkstra) {
    util::Rng rng(7);
    Graph g = test::random_connected(rng, 12, 10);
    Subgraph sg(g);
    const auto w = weight_by_length(g);
    const auto paths = yen_k_shortest(sg, NodeId{1u}, NodeId{8u}, w, 1);
    const auto sp = shortest_path(sg, NodeId{1u}, NodeId{8u}, w);
    ASSERT_EQ(paths.size(), 1u);
    ASSERT_TRUE(sp.has_value());
    EXPECT_NEAR(paths[0].weight, sp->weight, 1e-12);
}

TEST(Yen, ParallelLinksCountAsDistinctPaths) {
    Graph g;
    g.add_nodes(2);
    g.add_link(NodeId{0u}, NodeId{1u}, 1.0, 1.0);
    g.add_link(NodeId{0u}, NodeId{1u}, 1.0, 2.0);
    Subgraph sg(g);
    const auto paths = yen_k_shortest(sg, NodeId{0u}, NodeId{1u}, weight_by_length(g), 3);
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_DOUBLE_EQ(paths[0].weight, 1.0);
    EXPECT_DOUBLE_EQ(paths[1].weight, 2.0);
}

/// Eager Yen as it stood before YenPaths, frozen: every spur search of
/// the k − 1 iterations, an ordered candidate set, and the spur paths'
/// links appended to `footprint` in search order.
std::vector<WeightedPath> eager_yen_reference(const Subgraph& sg, NodeId src, NodeId dst,
                                              const LinkWeight& weight, std::size_t k,
                                              std::vector<LinkId>& footprint) {
    const Graph& g = sg.graph();
    SsspWorkspace ws;
    auto first = shortest_path(sg, src, dst, weight, ws);
    if (!first) return {};
    std::vector<WeightedPath> result{*first};
    auto cmp = [](const WeightedPath& a, const WeightedPath& b) {
        if (a.weight != b.weight) return a.weight < b.weight;
        return a.links < b.links;
    };
    std::set<WeightedPath, decltype(cmp)> candidates(cmp);
    Subgraph work = sg;
    while (result.size() < k) {
        const WeightedPath prev = result.back();
        const std::vector<NodeId> prev_nodes = path_nodes(g, src, prev.links);
        for (std::size_t i = 0; i + 1 < prev_nodes.size(); ++i) {
            const std::vector<LinkId> root(prev.links.begin(),
                                           prev.links.begin() + static_cast<std::ptrdiff_t>(i));
            double root_weight = 0.0;
            for (const LinkId l : root) root_weight += weight(l);
            std::vector<LinkId> removed;
            for (const WeightedPath& p : result) {
                if (p.links.size() > i && std::equal(root.begin(), root.end(), p.links.begin()) &&
                    work.is_active(p.links[i])) {
                    work.set_active(p.links[i], false);
                    removed.push_back(p.links[i]);
                }
            }
            for (std::size_t j = 0; j < i; ++j) {
                for (const LinkId l : g.incident(prev_nodes[j])) {
                    if (work.is_active(l)) {
                        work.set_active(l, false);
                        removed.push_back(l);
                    }
                }
            }
            if (auto spur = shortest_path(work, prev_nodes[i], dst, weight, ws)) {
                footprint.insert(footprint.end(), spur->links.begin(), spur->links.end());
                WeightedPath total;
                total.links = root;
                total.links.insert(total.links.end(), spur->links.begin(), spur->links.end());
                total.weight = root_weight + spur->weight;
                candidates.insert(std::move(total));
            }
            for (const LinkId l : removed) work.set_active(l, true);
        }
        bool advanced = false;
        while (!candidates.empty() && !advanced) {
            WeightedPath best = *candidates.begin();
            candidates.erase(candidates.begin());
            if (std::none_of(result.begin(), result.end(),
                             [&](const WeightedPath& p) { return p.links == best.links; })) {
                result.push_back(std::move(best));
                advanced = true;
            }
        }
        if (!advanced) break;
    }
    return result;
}

TEST(Yen, StepwisePathsEqualEagerPrefix) {
    // Tie-heavy multigraphs: a spanning chain plus random pairs, each
    // joined by 1-3 parallel links of one length, so candidates tie on
    // weight and the ordered set's link-sequence order decides. One
    // YenPaths object serves every query, so stale buffers would show.
    util::Rng rng(271);
    YenPaths yen;
    SsspWorkspace ws;
    int multi_step = 0;
    for (int round = 0; round < 60; ++round) {
        const auto n = 4 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{5}));
        const double length = rng.bernoulli(0.5) ? 1.0 : rng.uniform(0.5, 3.0);
        Graph g;
        g.add_nodes(n);
        const auto join = [&](std::size_t a, std::size_t b) {
            const auto parallel = 1 + rng.uniform_int(std::uint64_t{3});
            for (std::uint64_t p = 0; p < parallel; ++p) {
                g.add_link(NodeId{a}, NodeId{b}, 10.0, rng.bernoulli(0.8) ? length : 2 * length);
            }
        };
        for (std::size_t i = 0; i + 1 < n; ++i) join(i, i + 1);
        for (std::size_t e = 0; e < n; ++e) {
            const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
            join(a, (a + 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n - 1}))) % n);
        }
        Subgraph sg(g);
        for (const LinkId l : g.all_links()) {
            if (rng.bernoulli(0.15)) sg.set_active(l, false);
        }
        const ActiveAdjacency incidence(sg);
        LinkWeightArray flat(g.link_count());
        for (const LinkId l : g.all_links()) flat[l.index()] = g.link(l).length_km;
        const LinkWeight weight = [&](LinkId l) { return flat[l.index()]; };

        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        const auto t = (s + 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n - 1}))) % n;
        const auto first = shortest_path(sg, incidence, NodeId{s}, NodeId{t}, flat, ws);
        if (!first) continue;
        for (std::size_t k = 1; k <= 6; ++k) {
            std::vector<LinkId> want_footprint;
            const auto want =
                eager_yen_reference(sg, NodeId{s}, NodeId{t}, weight, k, want_footprint);
            std::vector<LinkId> footprint;
            yen.reset(sg, incidence, NodeId{s}, NodeId{t}, *first);
            while (yen.size() < k && yen.advance(flat, ws, &footprint)) {
            }
            ASSERT_EQ(yen.size(), want.size()) << "round " << round << " k " << k;
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(yen.path(i).links, want[i].links) << "round " << round << " k " << k;
                EXPECT_EQ(yen.path(i).weight, want[i].weight) << "round " << round << " k " << k;
            }
            EXPECT_EQ(footprint, want_footprint) << "round " << round << " k " << k;
            if (want.size() > 2) ++multi_step;
        }
    }
    EXPECT_GT(multi_step, 50);
}

TEST(Yen, RejectsBadArguments) {
    Graph g = test::chain(2);
    Subgraph sg(g);
    EXPECT_THROW(yen_k_shortest(sg, NodeId{0u}, NodeId{0u}, weight_unit(), 2),
                 util::ContractViolation);
    EXPECT_THROW(yen_k_shortest(sg, NodeId{0u}, NodeId{1u}, weight_unit(), 0),
                 util::ContractViolation);
}

}  // namespace
}  // namespace poc::net
