// Differential test of the heuristic winner determination's deletion
// pass (DESIGN.md §5, "Deletion-pass bookkeeping"). select_links keeps
// running per-party tallies and walks one removal order shared by all
// the solves of an auction; the frozen reference below is the plain
// form it must reproduce: it reprices the whole set from each bid's
// cost function at every step and sorts its own removal order on every
// call. Both run against oracles that record every query, and must
// agree on the selection, its cost and the exact query sequence, over
// pools with tier discounts, bundle overrides, virtual links and graph
// links nobody offers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "market/pricing.hpp"
#include "market/vcg.hpp"
#include "market/windet.hpp"
#include "topo/traffic.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace poc::market {
namespace {

// ---- the frozen reference ----------------------------------------------

/// C(L) by definition: each bid prices its own share, plus the virtual
/// links' contract cost.
std::optional<util::Money> reference_cost(const OfferPool& pool, const net::Subgraph& sg) {
    const std::vector<net::LinkId> links = sg.active_links();
    util::Money total{};
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

std::vector<net::LinkId> reference_removal_order(const OfferPool& pool,
                                                 const std::vector<net::LinkId>& links) {
    std::vector<std::pair<double, net::LinkId>> keyed;
    for (const net::LinkId l : links) {
        keyed.emplace_back(pool.price(l).dollars() / pool.graph().link(l).capacity_gbps, l);
    }
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;
    });
    std::vector<net::LinkId> order;
    for (const auto& [key, link] : keyed) order.push_back(link);
    return order;
}

class ReferencePass {
public:
    ReferencePass(const OfferPool& pool, const Oracle& oracle, net::Subgraph& sg,
                  util::Money cost, OracleWitness& witness)
        : pool_(pool), oracle_(oracle), sg_(sg), cost_(cost), witness_(witness) {}

    util::Money cost() const { return cost_; }

    void try_remove(const std::vector<net::LinkId>& batch) {
        if (batch.empty()) return;
        for (const net::LinkId l : batch) sg_.set_active(l, false);
        const auto new_cost = reference_cost(pool_, sg_);
        if (new_cost && *new_cost <= cost_ && oracle_.accepts(sg_, &witness_)) {
            cost_ = *new_cost;
            return;
        }
        for (const net::LinkId l : batch) sg_.set_active(l, true);
        if (batch.size() == 1) return;
        const auto mid = batch.begin() + static_cast<std::ptrdiff_t>(batch.size() / 2);
        try_remove({batch.begin(), mid});
        try_remove({mid, batch.end()});
    }

private:
    const OfferPool& pool_;
    const Oracle& oracle_;
    net::Subgraph& sg_;
    util::Money cost_;
    OracleWitness& witness_;
};

std::optional<Selection> reference_select_links(const OfferPool& pool, const Oracle& oracle,
                                                const std::vector<net::LinkId>& available,
                                                std::size_t batch_size) {
    net::Subgraph sg(pool.graph(), available);
    OracleWitness witness;
    if (!oracle.accepts(sg, &witness)) return std::nullopt;
    ReferencePass pass(pool, oracle, sg, *reference_cost(pool, sg), witness);
    const std::vector<net::LinkId> order = reference_removal_order(pool, available);
    std::size_t i = 0;
    while (i < order.size()) {
        std::vector<net::LinkId> batch;
        while (i < order.size() && batch.size() < batch_size) {
            if (sg.is_active(order[i])) batch.push_back(order[i]);
            ++i;
        }
        pass.try_remove(batch);
    }
    for (const net::LinkId l : reference_removal_order(pool, sg.active_links())) {
        if (sg.is_active(l)) pass.try_remove({l});
    }
    Selection sel;
    sel.links = sg.active_links();
    sel.cost = pass.cost();
    EXPECT_TRUE(oracle.accepts(net::Subgraph(pool.graph(), sel.links)));
    return sel;
}

// ---- oracles -------------------------------------------------------------

/// Forwards every query (and its witness) to the wrapped oracle and
/// records the queried set.
class RecordingOracle final : public Oracle {
public:
    explicit RecordingOracle(const Oracle& inner) : inner_(inner) {}

    /// The active links of every query, in query order.
    mutable std::vector<std::vector<net::LinkId>> queries;

private:
    bool accepts_impl(const net::Subgraph& sg) const override {
        log(sg);
        return inner_.accepts(sg);
    }
    bool accepts_witnessed(const net::Subgraph& sg, OracleWitness& witness) const override {
        log(sg);
        return inner_.accepts(sg, &witness);
    }
    void log(const net::Subgraph& sg) const { queries.push_back(sg.active_links()); }

    const Oracle& inner_;
};

/// A scripted verdict: the set must keep one link of every cover group,
/// and is refused anyway when its fingerprint falls in a fixed residue
/// class, so the pass sees rejects that more links would not cure.
class ScriptedOracle final : public Oracle {
public:
    explicit ScriptedOracle(std::vector<std::vector<net::LinkId>> groups)
        : groups_(std::move(groups)) {}

private:
    bool accepts_impl(const net::Subgraph& sg) const override {
        for (const auto& group : groups_) {
            if (std::none_of(group.begin(), group.end(),
                             [&](net::LinkId l) { return sg.is_active(l); })) {
                return false;
            }
        }
        return sg.fingerprint() % 7 != 3;
    }

    std::vector<std::vector<net::LinkId>> groups_;
};

// ---- pools ---------------------------------------------------------------

/// A random pool over parallel links between six cities: four bids (two
/// with volume tiers, one with bundle overrides), external-ISP virtual
/// links, and graph links nobody offers.
struct MixedPool {
    net::Graph graph;
    std::vector<BpBid> bids;
    VirtualLinkContract contract;
    net::TrafficMatrix tm;
    std::vector<net::LinkId> offered;

    explicit MixedPool(std::uint64_t seed) {
        util::Rng rng(seed);
        constexpr std::size_t kNodes = 6;
        graph.add_nodes(kNodes);
        for (std::size_t b = 0; b < 4; ++b) bids.emplace_back(BpId{b}, "BP" + std::to_string(b));
        for (std::size_t i = 0; i < 150; ++i) {
            const auto u = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{kNodes}));
            const std::size_t v =
                (u + 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{kNodes - 1}))) %
                kNodes;
            // Capacities from a short list, so price-per-gbps keys tie
            // and the id tie break matters.
            const double capacity =
                2.0 * static_cast<double>(1 + rng.uniform_int(std::uint64_t{3}));
            const net::LinkId l =
                graph.add_link(net::NodeId{u}, net::NodeId{v}, capacity, rng.uniform(5.0, 15.0));
            const double kind = rng.uniform(0.0, 1.0);
            if (kind < 0.1) continue;  // nobody offers it
            offered.push_back(l);
            const auto price = util::Money::from_dollars(
                static_cast<double>(50 * (1 + rng.uniform_int(std::uint64_t{10}))));
            if (kind < 0.2) {
                contract.add(l, price.scaled(3.0));
            } else {
                bids[static_cast<std::size_t>(rng.uniform_int(std::uint64_t{4}))].offer(l, price);
            }
        }
        bids[0].add_discount({4, 0.05});
        bids[0].add_discount({12, 0.15});
        bids[1].add_discount({25, 0.3});
        // Bid 3's overrides: some single links and pairs priced off the
        // additive sum (lower and higher), and its whole offer.
        const std::vector<net::LinkId> own = bids[3].offered_links();
        for (std::size_t i = 0; i < own.size(); ++i) {
            const util::Money base = bids[3].base_price(own[i]);
            if (i % 3 == 0) bids[3].override_bundle({own[i]}, base.scaled(i % 2 == 0 ? 0.5 : 1.7));
            if (i % 5 == 1 && i + 1 < own.size()) {
                bids[3].override_bundle({own[i], own[i + 1]}, base.scaled(1.2));
            }
        }
        if (!own.empty()) bids[3].override_bundle(own, util::Money::from_dollars(900.0));

        for (std::size_t k = 0; k < 3; ++k) {
            const auto u = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{kNodes}));
            tm.push_back({net::NodeId{u}, net::NodeId{(u + 1 + k) % kNodes},
                          rng.uniform(2.0, 8.0)});
        }
    }

    OfferPool pool() const { return OfferPool(bids, contract, graph); }

    /// Cover groups of five offered links each, for the scripted oracle.
    std::vector<std::vector<net::LinkId>> cover_groups(std::uint64_t seed) const {
        util::Rng rng(seed);
        std::vector<std::vector<net::LinkId>> groups(10);
        for (auto& group : groups) {
            for (int k = 0; k < 5; ++k) {
                group.push_back(offered[static_cast<std::size_t>(
                    rng.uniform_int(std::uint64_t{offered.size()}))]);
            }
        }
        return groups;
    }
};

/// The available sets of one auction: the winner determination's and
/// every Clarke pivot's.
std::vector<std::vector<net::LinkId>> auction_availabilities(const OfferPool& pool) {
    std::vector<std::vector<net::LinkId>> sets{pool.offered_links()};
    for (const BpBid& bid : pool.bids()) sets.push_back(pool.offered_links_without(bid.bp()));
    return sets;
}

/// Runs the reference and both select_links forms under recording
/// oracles and requires the same selection, cost and query sequence.
void expect_same_as_reference(const OfferPool& pool, const Oracle& inner) {
    const std::vector<net::LinkId> auction_order = removal_order(pool, pool.offered_links());
    std::size_t solved = 0;
    for (const std::size_t batch_size : {1u, 2u, 8u, 64u}) {
        WinnerDeterminationOptions opt;
        opt.batch_size = batch_size;
        const auto sets = auction_availabilities(pool);
        for (std::size_t s = 0; s < sets.size(); ++s) {
            SCOPED_TRACE("batch " + std::to_string(batch_size) + ", available set " +
                         std::to_string(s));
            const RecordingOracle ref_oracle(inner);
            const auto want = reference_select_links(pool, ref_oracle, sets[s], batch_size);

            const RecordingOracle own_oracle(inner);
            const auto own_order = select_links(pool, own_oracle, sets[s], opt);
            const RecordingOracle shared_oracle(inner);
            const auto shared_order =
                select_links(pool, shared_oracle, sets[s], auction_order, opt);

            if (want) ++solved;
            for (const auto* got : {&own_order, &shared_order}) {
                ASSERT_EQ(want.has_value(), got->has_value());
                if (!want) continue;
                EXPECT_EQ(want->links, (*got)->links);
                EXPECT_EQ(want->cost, (*got)->cost);
                EXPECT_EQ(reference_cost(pool, net::Subgraph(pool.graph(), want->links)),
                          (*got)->cost);
            }
            EXPECT_EQ(ref_oracle.queries, own_oracle.queries);
            EXPECT_EQ(ref_oracle.queries, shared_oracle.queries);
        }
    }
    // Most sets must be solvable, or the comparison shows little.
    EXPECT_GT(solved, 4 * (pool.bids().size() + 1) / 2);
}

// ---- tests ---------------------------------------------------------------

class DeletionPassDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DeletionPassDifferential, ScriptedOracle) {
    const MixedPool inst(GetParam());
    const OfferPool pool = inst.pool();
    const ScriptedOracle oracle(inst.cover_groups(GetParam() + 100));
    expect_same_as_reference(pool, oracle);
}

TEST_P(DeletionPassDifferential, FastOracle) {
    const MixedPool inst(GetParam());
    const OfferPool pool = inst.pool();
    OracleOptions oopt;
    oopt.fidelity = OracleFidelity::kFast;
    const AcceptabilityOracle oracle(inst.graph, inst.tm, ConstraintKind::kLoad, oopt);
    expect_same_as_reference(pool, oracle);
}

TEST_P(DeletionPassDifferential, TallyPricesLikeEachBid) {
    // Every intermediate set of a pass is priced from the tally; check
    // the tally against the definition on random subsets directly.
    const MixedPool inst(GetParam());
    const OfferPool pool = inst.pool();
    util::Rng rng(GetParam() + 200);
    net::Subgraph sg(pool.graph(), pool.offered_links());
    OfferPool::Tally tally = pool.tally(sg);
    for (int step = 0; step < 400; ++step) {
        const net::LinkId l = pool.offered_links()[static_cast<std::size_t>(
            rng.uniform_int(std::uint64_t{pool.offered_links().size()}))];
        if (sg.is_active(l)) {
            sg.set_active(l, false);
            tally.remove(l);
        } else {
            sg.set_active(l, true);
            tally.add(l);
        }
        ASSERT_EQ(pool.total_cost(tally, sg), reference_cost(pool, sg)) << "step " << step;
        ASSERT_EQ(pool.total_cost(sg), reference_cost(pool, sg)) << "step " << step;
        ASSERT_EQ(pool.total_cost(sg.active_links()), reference_cost(pool, sg)) << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeletionPassDifferential, ::testing::Values(11, 12, 13, 14));

TEST(DeletionPassDifferential, GeneratedTopologyFastOracle) {
    topo::BpGeneratorOptions bopt;
    bopt.bp_count = 6;
    bopt.min_cities = 6;
    bopt.max_cities = 12;
    bopt.seed = 23;
    topo::PocTopologyOptions popt;
    popt.min_colocated_bps = 3;
    auto topology = topo::build_poc_topology(topo::generate_bp_networks(bopt), popt);
    VirtualLinkOptions vopt;
    vopt.attach_count = std::min<std::size_t>(3, topology.router_city.size());
    PricingOptions pricing;
    pricing.discount_threshold = 3;  // tiers bite in most shares
    const OfferPool pool = make_offer_pool(topology, pricing, vopt);
    topo::GravityOptions gopt;
    gopt.total_gbps = 300.0;
    const auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), 15);
    OracleOptions oopt;
    oopt.fidelity = OracleFidelity::kFast;
    const AcceptabilityOracle oracle(pool.graph(), tm, ConstraintKind::kLoad, oopt);
    expect_same_as_reference(pool, oracle);
}

TEST(DeletionPassDifferential, OrderNotCoveringTheAvailableSetIsRefused) {
    const MixedPool inst(11);
    const OfferPool pool = inst.pool();
    const ScriptedOracle oracle(inst.cover_groups(111));
    std::vector<net::LinkId> order = removal_order(pool, pool.offered_links());
    order.pop_back();
    EXPECT_THROW(select_links(pool, oracle, pool.offered_links(), order),
                 util::ContractViolation);
}

TEST(DeletionPassDifferential, AuctionBytesEqualAtOneAndFourThreads) {
    // Eight bids: at four threads the pivots fan out over the shared
    // removal order.
    topo::BpGeneratorOptions bopt;
    bopt.bp_count = 8;
    bopt.min_cities = 6;
    bopt.max_cities = 12;
    bopt.seed = 7002;
    topo::PocTopologyOptions popt;
    popt.min_colocated_bps = 3;
    auto topology = topo::build_poc_topology(topo::generate_bp_networks(bopt), popt);
    VirtualLinkOptions vopt;
    vopt.attach_count = std::min<std::size_t>(3, topology.router_city.size());
    const OfferPool pool = make_offer_pool(topology, {}, vopt);
    topo::GravityOptions gopt;
    gopt.total_gbps = 300.0;
    const auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), 15);
    OracleOptions oopt;
    oopt.fidelity = OracleFidelity::kFast;

    auto encoded = [&](std::size_t threads) {
        const AcceptabilityOracle oracle(pool.graph(), tm, ConstraintKind::kLoad, oopt);
        AuctionOptions opt;
        opt.threads = threads;
        const auto result = run_auction(pool, oracle, opt);
        EXPECT_TRUE(result.has_value());
        util::BinaryWriter w;
        if (result) write_auction_result(w, *result);
        return w.bytes();
    };
    ASSERT_EQ(pool.bids().size(), 8u);
    EXPECT_EQ(encoded(1), encoded(4));
}

}  // namespace
}  // namespace poc::market
