// The auction's bid language (paper section 3.3): each bandwidth
// provider alpha offers a set of links L_alpha and a cost function
// C_alpha mapping subsets of L_alpha to a minimal acceptable monthly
// price. We support the non-additive pricing the paper calls out
// ("discounts for multiple links") through volume-discount tiers and
// explicit bundle overrides; any subset containing a link the BP did
// not offer prices to infinity (represented as std::nullopt).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"
#include "util/ids.hpp"
#include "util/money.hpp"

namespace poc::market {

using BpId = util::Id<struct BpTag>;

/// Volume discount: subsets with at least `min_links` links get
/// `fraction` off the additive total. The largest applicable tier wins.
struct DiscountTier {
    std::size_t min_links = 0;
    double fraction = 0.0;  // in [0, 1)
};

/// One BP's sealed bid.
class BpBid {
public:
    BpBid(BpId bp, std::string name) : bp_(bp), name_(std::move(name)) {}

    BpId bp() const noexcept { return bp_; }
    const std::string& name() const noexcept { return name_; }

    /// Offer a link at the given monthly base price. A link may be
    /// offered at most once per BP. Price must be positive.
    void offer(net::LinkId link, util::Money base_price);

    /// Add a volume-discount tier. Fractions must lie in [0, 1).
    void add_discount(DiscountTier tier);

    /// Override the price of one exact bundle (subset given in sorted
    /// link-id order). Takes precedence over additive+tier pricing.
    void override_bundle(std::vector<net::LinkId> bundle, util::Money price);

    bool offers(net::LinkId link) const { return base_price_.contains(link); }
    const std::vector<net::LinkId>& offered_links() const noexcept { return links_; }

    /// Base (additive, undiscounted) price of one offered link.
    util::Money base_price(net::LinkId link) const;

    /// C_alpha(subset): minimal acceptable price for leasing exactly
    /// `subset`, or nullopt (infinite) if the subset contains a link the
    /// BP does not offer. The empty subset costs zero. `subset` need not
    /// be sorted.
    std::optional<util::Money> cost(const std::vector<net::LinkId>& subset) const;

    /// The additive+tier price of `links` offered links whose base prices
    /// sum to `additive`: cost() for a subset no bundle override matches.
    util::Money tiered(util::Money additive, std::size_t links) const;

    bool has_bundle_overrides() const noexcept { return !bundle_overrides_.empty(); }
    const std::vector<DiscountTier>& discounts() const noexcept { return tiers_; }
    /// The largest volume-discount fraction across all tiers (0 if none).
    double max_discount_fraction() const noexcept;

private:
    BpId bp_;
    std::string name_;
    std::vector<net::LinkId> links_;
    std::unordered_map<net::LinkId, util::Money> base_price_;
    std::vector<DiscountTier> tiers_;
    // Key: sorted bundle; linear scan is fine (few overrides per bid).
    std::vector<std::pair<std::vector<net::LinkId>, util::Money>> bundle_overrides_;
};

/// The external ISPs' virtual links (paper: set VL). Their cost is set
/// by long-term contract, not by the auction: a fixed price per link,
/// purely additive, never removed from the offer pool, and the external
/// ISPs are never VCG participants.
class VirtualLinkContract {
public:
    /// Register a virtual link at a contracted monthly price (> 0).
    void add(net::LinkId link, util::Money price);

    bool contains(net::LinkId link) const { return price_.contains(link); }
    const std::vector<net::LinkId>& links() const noexcept { return links_; }

    /// C_v(subset): additive contract cost. Requires every element to be
    /// a registered virtual link.
    util::Money cost(const std::vector<net::LinkId>& subset) const;

    util::Money price(net::LinkId link) const;

private:
    std::vector<net::LinkId> links_;
    std::unordered_map<net::LinkId, util::Money> price_;
};

/// The complete offer pool OL = VL u (union of L_alpha), with an owner
/// lookup per link. Construction validates that every offered link is
/// offered by exactly one party; graph links nobody offers are simply
/// absent from OL (e.g. links a colluding BP withholds).
class OfferPool {
public:
    OfferPool(std::vector<BpBid> bids, VirtualLinkContract virtual_links,
              const net::Graph& graph);

    const std::vector<BpBid>& bids() const noexcept { return bids_; }
    const BpBid& bid(BpId bp) const;
    const VirtualLinkContract& virtual_links() const noexcept { return virtual_links_; }
    const net::Graph& graph() const noexcept { return *graph_; }

    /// All offered links in id order (a subset of the graph's links).
    const std::vector<net::LinkId>& offered_links() const noexcept { return offered_; }

    /// Offered links not owned by `bp`: the Clarke-pivot availability
    /// set OL - L_alpha, in id order (the engine's canonical form).
    std::vector<net::LinkId> offered_links_without(BpId bp) const;

    bool is_offered(net::LinkId link) const;

    /// Owner of an offered link: the BP id, or an invalid id for
    /// virtual links. Requires the link to be offered.
    BpId owner(net::LinkId link) const;
    bool is_virtual(net::LinkId link) const { return !owner(link).valid(); }
    /// Price of one offered link as offered: its bid's base price, or
    /// the contract price of a virtual link. Requires the link to be
    /// offered.
    util::Money price(net::LinkId link) const;

    /// Running per-party totals of a link set: each bid's link count and
    /// base-price sum, and the virtual links' contract-price sum, in
    /// exact integer micros, so any order of adds and removes gives the
    /// same totals. Every total_cost prices a set from its tally; a
    /// deletion pass keeps one and updates it per link it removes.
    class Tally {
    public:
        /// Add or remove one offered link (checked) to or from the set.
        void add(net::LinkId link);
        void remove(net::LinkId link);

    private:
        friend class OfferPool;
        explicit Tally(const OfferPool& pool);

        const OfferPool* pool_;
        /// Indexed by party: bids in order, then the virtual links.
        std::vector<std::size_t> count_;
        std::vector<util::Money> additive_;
    };

    /// The tally of the Subgraph's active links.
    Tally tally(const net::Subgraph& sg) const;

    /// Total cost C(L) of an arbitrary link set: sum over BPs of
    /// C_alpha(L intersect L_alpha) plus C_v(L intersect VL). Returns
    /// nullopt if any BP prices its share to infinity. Every link must
    /// be offered. One pass over `links`, whatever the number of BPs,
    /// plus one per bid with bundle overrides.
    std::optional<util::Money> total_cost(const std::vector<net::LinkId>& links) const;
    /// total_cost of the Subgraph's active links, read straight from its
    /// mask: the same value as total_cost(sg.active_links()).
    std::optional<util::Money> total_cost(const net::Subgraph& sg) const;
    /// total_cost of the Subgraph's active links given their tally
    /// (`tally` must equal tally(sg)): O(parties), plus one pass over the
    /// offered links of each bid with bundle overrides.
    std::optional<util::Money> total_cost(const Tally& tally, const net::Subgraph& sg) const;

    /// The subset of `links` owned by `bp`.
    std::vector<net::LinkId> owned_subset(const std::vector<net::LinkId>& links, BpId bp) const;

private:
    static constexpr std::uint32_t kNotOffered = ~std::uint32_t{0};

    /// The pricing party of an offered link: its bid's index in bids_,
    /// or bids_.size() for a virtual link.
    std::size_t party(net::LinkId link) const;

    /// The cost of the set `tally` sums. A bid with bundle overrides
    /// prices its share as a list, which `share_of(p, share)` appends
    /// for party p, since an override matches an exact bundle.
    template <class ShareOf>
    std::optional<util::Money> priced(const Tally& tally, ShareOf&& share_of) const;

    std::vector<BpBid> bids_;
    VirtualLinkContract virtual_links_;
    const net::Graph* graph_;
    std::vector<net::LinkId> offered_;
    std::vector<std::uint32_t> party_by_link_;  // indexed by link id; kNotOffered if absent
    /// Base price (BP links) or contract price (virtual links), indexed
    /// by link id; zero if not offered.
    std::vector<util::Money> price_by_link_;
};

}  // namespace poc::market
