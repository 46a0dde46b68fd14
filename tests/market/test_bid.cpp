#include "market/bid.hpp"

#include <gtest/gtest.h>

#include "helpers/market.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace poc::market {
namespace {

using util::Money;
using util::operator""_usd;

TEST(BpBid, AdditiveCost) {
    net::Graph g = test::triangle();
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    bid.offer(net::LinkId{1u}, 50_usd);
    EXPECT_EQ(bid.cost({net::LinkId{0u}}), 100_usd);
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}}), 150_usd);
}

TEST(BpBid, EmptySubsetIsFree) {
    BpBid bid(BpId{0u}, "A");
    EXPECT_EQ(bid.cost({}), Money{});
}

TEST(BpBid, UnofferedLinkIsInfinite) {
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    EXPECT_FALSE(bid.cost({net::LinkId{1u}}).has_value());
    EXPECT_FALSE(bid.cost({net::LinkId{0u}, net::LinkId{1u}}).has_value());
}

TEST(BpBid, VolumeDiscountAppliesAtThreshold) {
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    bid.offer(net::LinkId{1u}, 100_usd);
    bid.offer(net::LinkId{2u}, 100_usd);
    bid.add_discount(DiscountTier{3, 0.10});
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}}), 200_usd);  // below threshold
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}, net::LinkId{2u}}), 270_usd);
}

TEST(BpBid, LargestTierWins) {
    BpBid bid(BpId{0u}, "A");
    for (std::uint32_t i = 0; i < 4; ++i) bid.offer(net::LinkId{i}, 100_usd);
    bid.add_discount(DiscountTier{2, 0.05});
    bid.add_discount(DiscountTier{4, 0.20});
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}, net::LinkId{2u}, net::LinkId{3u}}),
              320_usd);
    EXPECT_DOUBLE_EQ(bid.max_discount_fraction(), 0.20);
}

TEST(BpBid, BundleOverrideTakesPrecedence) {
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    bid.offer(net::LinkId{1u}, 100_usd);
    bid.override_bundle({net::LinkId{1u}, net::LinkId{0u}}, 120_usd);  // unsorted input ok
    EXPECT_EQ(bid.cost({net::LinkId{0u}, net::LinkId{1u}}), 120_usd);
    EXPECT_EQ(bid.cost({net::LinkId{0u}}), 100_usd);  // singleton unaffected
    EXPECT_TRUE(bid.has_bundle_overrides());
}

TEST(BpBid, RejectsDuplicateOfferAndBadInputs) {
    BpBid bid(BpId{0u}, "A");
    bid.offer(net::LinkId{0u}, 100_usd);
    EXPECT_THROW(bid.offer(net::LinkId{0u}, 50_usd), util::ContractViolation);
    EXPECT_THROW(bid.offer(net::LinkId{1u}, Money{}), util::ContractViolation);
    EXPECT_THROW(bid.add_discount(DiscountTier{1, 0.5}), util::ContractViolation);
    EXPECT_THROW(bid.add_discount(DiscountTier{2, 1.0}), util::ContractViolation);
    EXPECT_THROW(bid.override_bundle({net::LinkId{9u}}, 10_usd), util::ContractViolation);
}

TEST(VirtualLinks, AdditiveContractCost) {
    VirtualLinkContract c;
    c.add(net::LinkId{0u}, 300_usd);
    c.add(net::LinkId{1u}, 200_usd);
    EXPECT_EQ(c.cost({net::LinkId{0u}, net::LinkId{1u}}), 500_usd);
    EXPECT_EQ(c.cost({}), Money{});
    EXPECT_EQ(c.price(net::LinkId{1u}), 200_usd);
    EXPECT_THROW(c.price(net::LinkId{9u}), util::ContractViolation);
}

TEST(OfferPool, OwnerLookup) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    EXPECT_EQ(pool.owner(net::LinkId{0u}), BpId{0u});
    EXPECT_EQ(pool.owner(net::LinkId{2u}), BpId{2u});
    EXPECT_FALSE(pool.is_virtual(net::LinkId{0u}));
    EXPECT_EQ(pool.offered_links().size(), 3u);
}

TEST(OfferPool, TotalCostSumsAcrossOwners) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const auto cost = pool.total_cost({net::LinkId{0u}, net::LinkId{1u}, net::LinkId{2u}});
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 500_usd);
}

TEST(OfferPool, OwnedSubsetFilters) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    const auto links = pool.owned_subset(
        {net::LinkId{0u}, net::LinkId{1u}, net::LinkId{2u}}, BpId{1u});
    ASSERT_EQ(links.size(), 1u);
    EXPECT_EQ(links[0], net::LinkId{1u});
}

TEST(OfferPool, VirtualLinkOwnership) {
    net::Graph g;
    const auto a = g.add_node();
    const auto b = g.add_node();
    const auto l0 = g.add_link(a, b, 5.0, 1.0);
    const auto l1 = g.add_link(a, b, 5.0, 1.0);
    BpBid bid(BpId{0u}, "A");
    bid.offer(l0, 100_usd);
    VirtualLinkContract c;
    c.add(l1, 400_usd);
    const OfferPool pool({bid}, c, g);
    EXPECT_TRUE(pool.is_virtual(l1));
    EXPECT_FALSE(pool.owner(l1).valid());
    const auto cost = pool.total_cost({l0, l1});
    ASSERT_TRUE(cost.has_value());
    EXPECT_EQ(*cost, 500_usd);
}

TEST(OfferPool, UnofferedGraphLinksAreAbsent) {
    net::Graph g;
    const auto a = g.add_node();
    const auto b = g.add_node();
    const auto l0 = g.add_link(a, b, 5.0, 1.0);
    g.add_link(a, b, 5.0, 1.0);  // nobody offers this one
    BpBid bid(BpId{0u}, "A");
    bid.offer(l0, 100_usd);
    const OfferPool pool({bid}, {}, g);
    EXPECT_EQ(pool.offered_links().size(), 1u);
    EXPECT_FALSE(pool.is_offered(net::LinkId{1u}));
    EXPECT_THROW(pool.owner(net::LinkId{1u}), util::ContractViolation);
}

TEST(OfferPool, RejectsDoubleOwnership) {
    net::Graph g;
    const auto a = g.add_node();
    const auto b = g.add_node();
    const auto l0 = g.add_link(a, b, 5.0, 1.0);
    BpBid bid1(BpId{0u}, "A");
    bid1.offer(l0, 100_usd);
    BpBid bid2(BpId{1u}, "B");
    bid2.offer(l0, 150_usd);
    EXPECT_THROW(OfferPool({bid1, bid2}, {}, g), util::ContractViolation);
}

TEST(OfferPool, BidLookupByIdAndUnknownRejected) {
    test::ParallelLinksFixture fx;
    const OfferPool pool = fx.pool();
    EXPECT_EQ(pool.bid(BpId{1u}).name(), "B");
    EXPECT_THROW(pool.bid(BpId{9u}), util::ContractViolation);
}

/// C(L) as the per-BP definition states it, frozen: each BP prices the
/// share owned_subset() filters out for it, and the virtual links add
/// their contract prices.
std::optional<Money> reference_total_cost(const OfferPool& pool,
                                          const std::vector<net::LinkId>& links) {
    Money total{};
    for (const BpBid& bid : pool.bids()) {
        const auto c = bid.cost(pool.owned_subset(links, bid.bp()));
        if (!c) return std::nullopt;
        total += *c;
    }
    std::vector<net::LinkId> virtual_share;
    for (const net::LinkId l : links) {
        if (pool.is_virtual(l)) virtual_share.push_back(l);
    }
    return total + pool.virtual_links().cost(virtual_share);
}

TEST(OfferPoolTest, TotalCostMatchesPerBidReference) {
    util::Rng rng(2024);
    int overridden = 0;
    for (int round = 0; round < 40; ++round) {
        net::Graph g;
        g.add_nodes(6);
        const std::size_t link_count = 20 + static_cast<std::size_t>(round) * 4;
        const std::size_t bp_count = 1 + static_cast<std::size_t>(round) % 6;
        std::vector<BpBid> bids;
        for (std::size_t b = 0; b < bp_count; ++b) {
            bids.emplace_back(BpId{b}, "BP" + std::to_string(b));
            if (rng.bernoulli(0.6)) bids.back().add_discount({2 + b, rng.uniform(0.0, 0.3)});
            if (rng.bernoulli(0.4)) bids.back().add_discount({5, rng.uniform(0.0, 0.5)});
        }
        VirtualLinkContract contract;
        for (std::size_t i = 0; i < link_count; ++i) {
            const auto u = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{6}));
            const net::LinkId l = g.add_link(net::NodeId{u}, net::NodeId{(u + 1) % 6}, 10.0, 1.0);
            const double roll = rng.uniform(0.0, 1.0);
            if (roll < 0.1) continue;  // offered by nobody
            if (roll < 0.25) {
                contract.add(l, Money::from_dollars(rng.uniform(10.0, 900.0)));
            } else {
                const auto owner = static_cast<std::size_t>(rng.uniform_int(bp_count));
                bids[owner].offer(l, Money::from_dollars(rng.uniform(10.0, 900.0)));
            }
        }

        // Subsets of the offered links, each in shuffled order: random,
        // empty and full.
        std::vector<net::LinkId> offered;
        for (const BpBid& bid : bids) {
            offered.insert(offered.end(), bid.offered_links().begin(), bid.offered_links().end());
        }
        offered.insert(offered.end(), contract.links().begin(), contract.links().end());
        std::vector<std::vector<net::LinkId>> subsets = {{}, offered};
        for (int k = 0; k < 6; ++k) {
            std::vector<net::LinkId> subset;
            for (const net::LinkId l : offered) {
                if (rng.bernoulli(0.5)) subset.push_back(l);
            }
            subsets.push_back(std::move(subset));
        }
        for (auto& subset : subsets) rng.shuffle(subset);

        // Bundle overrides: one exactly equal to BP0's share of the
        // first random subset, so that subset prices through it, plus
        // a random bundle that rarely matches anything.
        std::vector<net::LinkId> share;
        for (const net::LinkId l : subsets[2]) {
            if (bids[0].offers(l)) share.push_back(l);
        }
        const Money share_price = Money::from_dollars(rng.uniform(1.0, 50.0));
        if (!share.empty()) bids[0].override_bundle(share, share_price);
        const std::vector<net::LinkId>& last = bids.back().offered_links();
        if (last.size() >= 2) {
            bids.back().override_bundle({last[0], last[1]},
                                        Money::from_dollars(rng.uniform(1.0, 50.0)));
        }

        const OfferPool pool(bids, contract, g);
        for (const auto& subset : subsets) {
            const auto expected = reference_total_cost(pool, subset);
            const auto got = pool.total_cost(subset);
            ASSERT_EQ(expected, got) << "round " << round << " subset size " << subset.size();
            // Pricing a Subgraph's mask gives the same total.
            ASSERT_EQ(expected, pool.total_cost(net::Subgraph(g, subset))) << "round " << round;
        }
        if (!share.empty()) {
            // The override is what prices BP0's share of that subset.
            EXPECT_EQ(pool.bid(BpId{0u}).cost(pool.owned_subset(subsets[2], BpId{0u})),
                      share_price);
            ++overridden;
        }
    }
    EXPECT_GT(overridden, 0);
}

TEST(OfferPoolTest, TotalCostRejectsUnofferedLinks) {
    net::Graph g;
    const auto a = g.add_node();
    const auto b = g.add_node();
    const auto l0 = g.add_link(a, b, 5.0, 1.0);
    const auto l1 = g.add_link(a, b, 5.0, 1.0);  // nobody offers this one
    BpBid bid(BpId{0u}, "A");
    bid.offer(l0, 100_usd);
    const OfferPool pool({bid}, {}, g);
    EXPECT_THROW((void)pool.total_cost({l0, l1}), util::ContractViolation);
    EXPECT_THROW((void)pool.total_cost({net::LinkId{7u}}), util::ContractViolation);
    EXPECT_THROW((void)pool.total_cost(net::Subgraph(g)), util::ContractViolation);
}

}  // namespace
}  // namespace poc::market
