// PathCache: hit/miss keying on (fingerprint, source, metric),
// epoch-based eviction, and identity of cached trees with fresh
// Dijkstra runs.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "helpers/graphs.hpp"
#include "net/path_cache.hpp"
#include "net/shortest_path.hpp"
#include "util/rng.hpp"

using namespace poc;
using net::LinkId;
using net::NodeId;

namespace {

void expect_trees_identical(const net::ShortestPathTree& a, const net::ShortestPathTree& b) {
    ASSERT_EQ(a.dist.size(), b.dist.size());
    EXPECT_EQ(a.source, b.source);
    for (std::size_t i = 0; i < a.dist.size(); ++i) {
        EXPECT_EQ(a.dist[i], b.dist[i]) << "node " << i;
        EXPECT_EQ(a.parent_link[i], b.parent_link[i]) << "node " << i;
    }
}

TEST(PathCache, CachedTreeMatchesFreshDijkstra) {
    util::Rng rng(41);
    const net::Graph g = test::random_connected(rng, 20, 12);
    net::Subgraph sg(g);
    sg.set_active(LinkId{1u}, false);

    net::PathCache cache;
    const auto t1 = cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    const auto fresh = net::dijkstra(sg, NodeId{0u}, net::weight_by_length(g));
    expect_trees_identical(*t1, fresh);

    // Second lookup on the same key is a hit returning the same object.
    const auto t2 = cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    EXPECT_EQ(t1.get(), t2.get());

    const auto st = cache.stats();
    EXPECT_EQ(st.hits, 1u);
    EXPECT_EQ(st.misses, 1u);
    EXPECT_EQ(st.entries, 1u);
}

TEST(PathCache, KeysOnSourceMaskAndMetric) {
    util::Rng rng(43);
    const net::Graph g = test::random_connected(rng, 15, 8);
    net::Subgraph sg(g);

    net::PathCache cache;
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    (void)cache.tree(sg, NodeId{1u}, net::SsspMetric::kLength);  // new source
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kUnit);    // new metric
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().entries, 3u);

    // Toggling a link changes the fingerprint: miss. Toggling it back
    // restores the original key: hit.
    sg.set_active(LinkId{0u}, false);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    EXPECT_EQ(cache.stats().misses, 4u);
    sg.set_active(LinkId{0u}, true);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    EXPECT_EQ(cache.stats().hits, 1u);

    // A Subgraph built independently with the same active set hits the
    // same entry (fingerprint is order-independent).
    net::Subgraph other(g);
    (void)cache.tree(other, NodeId{0u}, net::SsspMetric::kLength);
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(PathCache, AdvanceEpochEvictsUnusedEntries) {
    util::Rng rng(47);
    const net::Graph g = test::random_connected(rng, 10, 5);
    const net::Subgraph sg(g);

    net::PathCache cache(/*max_age=*/1);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    (void)cache.tree(sg, NodeId{1u}, net::SsspMetric::kLength);
    ASSERT_EQ(cache.stats().entries, 2u);

    cache.advance_epoch();
    // Refresh only source 0 inside the new epoch.
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    EXPECT_EQ(cache.stats().hits, 1u);

    cache.advance_epoch();
    // Source 1 went unused for a full epoch: evicted. Source 0 survives.
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    EXPECT_EQ(cache.stats().hits, 2u);
    (void)cache.tree(sg, NodeId{1u}, net::SsspMetric::kLength);
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(PathCache, LargerMaxAgeKeepsEntriesLonger) {
    util::Rng rng(53);
    const net::Graph g = test::random_connected(rng, 8, 4);
    const net::Subgraph sg(g);

    net::PathCache cache(/*max_age=*/3);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    cache.advance_epoch();
    cache.advance_epoch();
    cache.advance_epoch();
    EXPECT_EQ(cache.stats().entries, 1u);  // idle for 2 full epochs < max_age
    cache.advance_epoch();                 // idle for 3 full epochs == max_age
    EXPECT_EQ(cache.stats().entries, 0u);
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(PathCache, ClearDropsEverything) {
    util::Rng rng(59);
    const net::Graph g = test::random_connected(rng, 8, 4);
    const net::Subgraph sg(g);

    net::PathCache cache;
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    (void)cache.tree(sg, NodeId{2u}, net::SsspMetric::kUnit);
    cache.clear();
    EXPECT_EQ(cache.stats().entries, 0u);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    EXPECT_EQ(cache.stats().misses, 3u);
}

TEST(PathCache, RepairedLookupIsBitIdenticalAndCountsAsHitNotMiss) {
    util::Rng rng(67);
    const net::Graph g = test::random_connected(rng, 24, 16);
    net::Subgraph sg(g);

    net::PathCache cache(/*max_age=*/2, /*repair_budget=*/3);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);  // miss; installs the base
    ASSERT_EQ(cache.stats().misses, 1u);

    // Within budget: 3 flips away from the base mask.
    sg.set_active(LinkId{0u}, false);
    sg.set_active(LinkId{3u}, false);
    sg.set_active(LinkId{5u}, false);
    const auto repaired = cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    const auto fresh = net::dijkstra(sg, NodeId{0u}, net::weight_by_length(g));
    expect_trees_identical(*repaired, fresh);

    const auto st = cache.stats();
    EXPECT_EQ(st.hits, 1u);     // the repair IS the hit
    EXPECT_EQ(st.misses, 1u);   // no new miss
    EXPECT_EQ(st.repairs, 1u);
    EXPECT_EQ(st.entries, 2u);  // the repaired tree is a real entry

    // The base advanced to the repaired mask, so one more flip is again
    // within budget — and restores chain off cuts just as well.
    sg.set_active(LinkId{3u}, true);
    const auto repaired2 = cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    expect_trees_identical(*repaired2,
                           net::dijkstra(sg, NodeId{0u}, net::weight_by_length(g)));
    EXPECT_EQ(cache.stats().repairs, 2u);
    EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(PathCache, RepairBeyondBudgetFallsBackToColdMiss) {
    util::Rng rng(71);
    const net::Graph g = test::random_connected(rng, 20, 12);
    net::Subgraph sg(g);

    net::PathCache cache(/*max_age=*/1, /*repair_budget=*/2);
    (void)cache.tree(sg, NodeId{2u}, net::SsspMetric::kUnit);
    sg.set_active(LinkId{1u}, false);
    sg.set_active(LinkId{4u}, false);
    sg.set_active(LinkId{6u}, false);  // 3 flips > budget 2
    const auto t = cache.tree(sg, NodeId{2u}, net::SsspMetric::kUnit);
    expect_trees_identical(*t, net::dijkstra(sg, NodeId{2u}, net::weight_unit()));
    EXPECT_EQ(cache.stats().repairs, 0u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PathCache, RepairSourceDoesNotRefreshEntryIdleAge) {
    util::Rng rng(73);
    const net::Graph g = test::random_connected(rng, 12, 8);
    net::Subgraph sg(g);

    net::PathCache cache(/*max_age=*/1, /*repair_budget=*/2);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);  // entry A, epoch 0
    cache.advance_epoch();

    // Epoch 1: serve a near-miss mask by repairing off A. That must NOT
    // count as a use of A's entry — only direct lookups keep keys alive.
    sg.set_active(LinkId{2u}, false);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);  // entry B via repair
    ASSERT_EQ(cache.stats().repairs, 1u);
    ASSERT_EQ(cache.stats().entries, 2u);

    cache.advance_epoch();
    // A went unused for a full epoch (its service as repair base does
    // not refresh it); B was used in epoch 1 and survives.
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    (void)cache.tree(sg, NodeId{0u}, net::SsspMetric::kLength);
    EXPECT_EQ(cache.stats().hits, 2u);  // B is still a direct hit
}

TEST(PathCache, ConcurrentLookupsAreConsistent) {
    util::Rng rng(61);
    const net::Graph g = test::random_connected(rng, 30, 20);
    // Build the lazy adjacency before sharing the graph, as the parallel
    // engines do: racing first incident()/link_soa() calls are a data race.
    g.warm_adjacency();
    const net::Subgraph sg(g);

    net::PathCache cache;
    constexpr int kThreads = 4;
    std::vector<std::shared_ptr<const net::ShortestPathTree>> results(
        static_cast<std::size_t>(kThreads) * g.node_count());
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t s = 0; s < g.node_count(); ++s) {
                results[static_cast<std::size_t>(t) * g.node_count() + s] =
                    cache.tree(sg, NodeId{s}, net::SsspMetric::kLength);
            }
        });
    }
    for (auto& th : threads) th.join();

    const net::LinkWeight w = net::weight_by_length(g);
    for (std::size_t s = 0; s < g.node_count(); ++s) {
        const auto fresh = net::dijkstra(sg, NodeId{s}, w);
        for (int t = 0; t < kThreads; ++t) {
            expect_trees_identical(
                *results[static_cast<std::size_t>(t) * g.node_count() + s], fresh);
        }
    }
    // Every lookup either hit or missed; entries equals distinct keys.
    const auto st = cache.stats();
    EXPECT_EQ(st.hits + st.misses, static_cast<std::uint64_t>(kThreads) * g.node_count());
    EXPECT_EQ(st.entries, g.node_count());
}

}  // namespace
