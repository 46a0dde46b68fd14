#include "market/bid.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace poc::market {

void BpBid::offer(net::LinkId link, util::Money base_price) {
    POC_EXPECTS(link.valid());
    POC_EXPECTS(base_price > util::Money{});
    POC_EXPECTS(!offers(link));
    links_.push_back(link);
    base_price_.emplace(link, base_price);
}

void BpBid::add_discount(DiscountTier tier) {
    POC_EXPECTS(tier.fraction >= 0.0 && tier.fraction < 1.0);
    POC_EXPECTS(tier.min_links >= 2);
    tiers_.push_back(tier);
}

void BpBid::override_bundle(std::vector<net::LinkId> bundle, util::Money price) {
    POC_EXPECTS(!bundle.empty());
    POC_EXPECTS(price >= util::Money{});
    std::sort(bundle.begin(), bundle.end());
    POC_EXPECTS(std::adjacent_find(bundle.begin(), bundle.end()) == bundle.end());
    for (const net::LinkId l : bundle) POC_EXPECTS(offers(l));
    bundle_overrides_.emplace_back(std::move(bundle), price);
}

util::Money BpBid::base_price(net::LinkId link) const {
    const auto it = base_price_.find(link);
    POC_EXPECTS(it != base_price_.end());
    return it->second;
}

std::optional<util::Money> BpBid::cost(const std::vector<net::LinkId>& subset) const {
    if (subset.empty()) return util::Money{};

    util::Money additive{};
    for (const net::LinkId l : subset) {
        const auto it = base_price_.find(l);
        if (it == base_price_.end()) return std::nullopt;  // not offered: infinite
        additive += it->second;
    }

    // Exact bundle override?
    if (!bundle_overrides_.empty()) {
        std::vector<net::LinkId> sorted = subset;
        std::sort(sorted.begin(), sorted.end());
        for (const auto& [bundle, price] : bundle_overrides_) {
            if (bundle == sorted) return price;
        }
    }

    // Largest applicable volume tier.
    double best_fraction = 0.0;
    for (const DiscountTier& t : tiers_) {
        if (subset.size() >= t.min_links) best_fraction = std::max(best_fraction, t.fraction);
    }
    return additive.scaled(1.0 - best_fraction);
}

double BpBid::max_discount_fraction() const noexcept {
    double best = 0.0;
    for (const DiscountTier& t : tiers_) best = std::max(best, t.fraction);
    return best;
}

void VirtualLinkContract::add(net::LinkId link, util::Money price) {
    POC_EXPECTS(link.valid());
    POC_EXPECTS(price > util::Money{});
    POC_EXPECTS(!contains(link));
    links_.push_back(link);
    price_.emplace(link, price);
}

util::Money VirtualLinkContract::cost(const std::vector<net::LinkId>& subset) const {
    util::Money total{};
    for (const net::LinkId l : subset) total += price(l);
    return total;
}

util::Money VirtualLinkContract::price(net::LinkId link) const {
    const auto it = price_.find(link);
    POC_EXPECTS(it != price_.end());
    return it->second;
}

OfferPool::OfferPool(std::vector<BpBid> bids, VirtualLinkContract virtual_links,
                     const net::Graph& graph)
    : bids_(std::move(bids)), virtual_links_(std::move(virtual_links)), graph_(&graph) {
    POC_EXPECTS(bids_.size() < kNotOffered);
    party_by_link_.assign(graph.link_count(), kNotOffered);
    const auto claim = [&](net::LinkId l, std::size_t party) {
        POC_EXPECTS(l.index() < graph.link_count());
        POC_EXPECTS(party_by_link_[l.index()] == kNotOffered);  // one owner per link
        party_by_link_[l.index()] = static_cast<std::uint32_t>(party);
    };
    for (std::size_t i = 0; i < bids_.size(); ++i) {
        for (const net::LinkId l : bids_[i].offered_links()) claim(l, i);
    }
    for (const net::LinkId l : virtual_links_.links()) claim(l, bids_.size());
    for (std::size_t i = 0; i < party_by_link_.size(); ++i) {
        if (party_by_link_[i] != kNotOffered) offered_.emplace_back(i);
    }
}

bool OfferPool::is_offered(net::LinkId link) const {
    POC_EXPECTS(link.index() < party_by_link_.size());
    return party_by_link_[link.index()] != kNotOffered;
}

std::size_t OfferPool::party(net::LinkId link) const {
    POC_EXPECTS(is_offered(link));
    return party_by_link_[link.index()];
}

const BpBid& OfferPool::bid(BpId bp) const {
    for (const BpBid& b : bids_) {
        if (b.bp() == bp) return b;
    }
    POC_EXPECTS(false && "unknown BP id");
    // Unreachable; silences missing-return warnings.
    return bids_.front();
}

BpId OfferPool::owner(net::LinkId link) const {
    const std::size_t p = party(link);
    return p < bids_.size() ? bids_[p].bp() : BpId{};
}

std::optional<util::Money> OfferPool::total_cost(const std::vector<net::LinkId>& links) const {
    // Group the links by pricing party with one stable counting sort, so
    // each share keeps its input order: begin[p]..begin[p + 1] is party
    // p's share, the virtual links last.
    const std::size_t parties = bids_.size() + 1;
    std::vector<std::size_t> begin(parties + 1, 0);
    for (const net::LinkId l : links) ++begin[party(l) + 1];
    for (std::size_t p = 0; p < parties; ++p) begin[p + 1] += begin[p];
    std::vector<net::LinkId> grouped(links.size());
    std::vector<std::size_t> next(begin.begin(), begin.end() - 1);
    for (const net::LinkId l : links) grouped[next[party_by_link_[l.index()]]++] = l;

    const auto share_of = [&](std::size_t p, std::vector<net::LinkId>& share) {
        share.assign(grouped.begin() + static_cast<std::ptrdiff_t>(begin[p]),
                     grouped.begin() + static_cast<std::ptrdiff_t>(begin[p + 1]));
    };
    util::Money total{};
    std::vector<net::LinkId> share;
    for (std::size_t p = 0; p < bids_.size(); ++p) {
        share_of(p, share);
        const auto c = bids_[p].cost(share);
        if (!c) return std::nullopt;
        total += *c;
    }
    share_of(bids_.size(), share);
    total += virtual_links_.cost(share);
    return total;
}

std::vector<net::LinkId> OfferPool::offered_links_without(BpId bp) const {
    std::vector<net::LinkId> links;
    links.reserve(offered_.size());
    for (const net::LinkId l : offered_) {
        if (owner(l) != bp) links.push_back(l);
    }
    return links;
}

std::vector<net::LinkId> OfferPool::owned_subset(const std::vector<net::LinkId>& links,
                                                 BpId bp) const {
    std::vector<net::LinkId> out;
    for (const net::LinkId l : links) {
        if (owner(l) == bp) out.push_back(l);
    }
    return out;
}

}  // namespace poc::market
