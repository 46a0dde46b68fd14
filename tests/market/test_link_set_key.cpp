// LinkSetKey, the cache key of both auction memo tables: an id list and
// a Subgraph mask naming the same link set must give the same key and
// hash, at every word boundary and at paper scale, and different sets
// must stay distinct.
#include <gtest/gtest.h>

#include <vector>

#include "market/auction_cache.hpp"
#include "util/rng.hpp"

namespace poc::market {
namespace {

/// Two routers joined by `count` parallel links.
net::Graph parallel_links(std::size_t count) {
    net::Graph g;
    g.add_nodes(2);
    for (std::size_t i = 0; i < count; ++i) g.add_link(net::NodeId{0u}, net::NodeId{1u}, 1.0, 1.0);
    return g;
}

void expect_same_key(const std::vector<net::LinkId>& ids, const net::Subgraph& sg) {
    const LinkSetKey from_ids(ids);
    const LinkSetKey from_mask(sg);
    EXPECT_TRUE(from_ids == from_mask) << ids.size() << " links";
    EXPECT_EQ(from_ids.hash(), from_mask.hash()) << ids.size() << " links";
}

TEST(LinkSetKey, IdListAndMaskAgreeAcrossWordBoundaries) {
    util::Rng rng(97);
    for (const std::size_t count : {1u, 63u, 64u, 65u, 3460u}) {
        const net::Graph g = parallel_links(count);
        // Every link.
        expect_same_key(g.all_links(), net::Subgraph(g));
        // Only the highest id, which sets the key's length.
        const std::vector<net::LinkId> top = {net::LinkId{count - 1}};
        expect_same_key(top, net::Subgraph(g, top));
        // A random subset, listed in shuffled order.
        std::vector<net::LinkId> subset;
        for (const net::LinkId l : g.all_links()) {
            if (rng.bernoulli(0.5)) subset.push_back(l);
        }
        const net::Subgraph sg(g, subset);
        rng.shuffle(subset);
        expect_same_key(subset, sg);
    }
}

TEST(LinkSetKey, TrailingEmptyWordsDoNotMatter) {
    // The same set over graphs of different sizes is one key.
    const net::Graph small = parallel_links(3);
    const net::Graph large = parallel_links(3460);
    const std::vector<net::LinkId> ids = {net::LinkId{0u}, net::LinkId{2u}};
    EXPECT_TRUE(LinkSetKey(net::Subgraph(small, ids)) == LinkSetKey(net::Subgraph(large, ids)));
    expect_same_key(ids, net::Subgraph(large, ids));
}

TEST(LinkSetKey, EmptySet) {
    const net::Graph g = parallel_links(130);
    const LinkSetKey none(std::vector<net::LinkId>{});
    expect_same_key({}, net::Subgraph(g, {}));
    EXPECT_FALSE(none == LinkSetKey(std::vector<net::LinkId>{net::LinkId{0u}}));
}

TEST(LinkSetKey, DuplicatesCollapse) {
    const std::vector<net::LinkId> once = {net::LinkId{5u}, net::LinkId{70u}};
    const std::vector<net::LinkId> twice = {net::LinkId{70u}, net::LinkId{5u}, net::LinkId{70u}};
    EXPECT_TRUE(LinkSetKey(once) == LinkSetKey(twice));
}

TEST(LinkSetKey, SetAndSupersetAreDistinct) {
    std::vector<net::LinkId> set;
    for (std::uint32_t i = 0; i < 64; ++i) set.emplace_back(i);
    std::vector<net::LinkId> next_word = set;
    next_word.emplace_back(64u);
    std::vector<net::LinkId> same_word = set;
    same_word.erase(same_word.begin() + 10);
    EXPECT_FALSE(LinkSetKey(set) == LinkSetKey(next_word));
    EXPECT_FALSE(LinkSetKey(same_word) == LinkSetKey(set));
    const std::vector<net::LinkId> far = {net::LinkId{0u}, net::LinkId{3459u}};
    EXPECT_FALSE(LinkSetKey(std::vector<net::LinkId>{net::LinkId{0u}}) == LinkSetKey(far));
}

}  // namespace
}  // namespace poc::market
