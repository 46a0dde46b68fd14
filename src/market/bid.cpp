#include "market/bid.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>

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

    return tiered(additive, subset.size());
}

util::Money BpBid::tiered(util::Money additive, std::size_t links) const {
    if (links == 0) return util::Money{};
    // Largest applicable volume tier.
    double best_fraction = 0.0;
    for (const DiscountTier& t : tiers_) {
        if (links >= t.min_links) best_fraction = std::max(best_fraction, t.fraction);
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
    price_by_link_.assign(graph.link_count(), util::Money{});
    const auto claim = [&](net::LinkId l, std::size_t party, util::Money price) {
        POC_EXPECTS(l.index() < graph.link_count());
        POC_EXPECTS(party_by_link_[l.index()] == kNotOffered);  // one owner per link
        party_by_link_[l.index()] = static_cast<std::uint32_t>(party);
        price_by_link_[l.index()] = price;
    };
    for (std::size_t i = 0; i < bids_.size(); ++i) {
        for (const net::LinkId l : bids_[i].offered_links()) claim(l, i, bids_[i].base_price(l));
    }
    for (const net::LinkId l : virtual_links_.links()) {
        claim(l, bids_.size(), virtual_links_.price(l));
    }
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

util::Money OfferPool::price(net::LinkId link) const {
    POC_EXPECTS(is_offered(link));
    return price_by_link_[link.index()];
}

OfferPool::Tally::Tally(const OfferPool& pool)
    : pool_(&pool), count_(pool.bids_.size() + 1, 0), additive_(pool.bids_.size() + 1) {}

void OfferPool::Tally::add(net::LinkId link) {
    const std::size_t p = pool_->party(link);
    ++count_[p];
    additive_[p] += pool_->price_by_link_[link.index()];
}

void OfferPool::Tally::remove(net::LinkId link) {
    const std::size_t p = pool_->party(link);
    POC_EXPECTS(count_[p] > 0);
    --count_[p];
    additive_[p] -= pool_->price_by_link_[link.index()];
}

OfferPool::Tally OfferPool::tally(const net::Subgraph& sg) const {
    Tally t(*this);
    const std::span<const char> mask = sg.mask();
    // Late in a deletion pass few links are active: skip all-zero runs
    // of eight mask bytes with one load.
    std::size_t i = 0;
    for (; i + 8 <= mask.size(); i += 8) {
        std::uint64_t bytes;
        std::memcpy(&bytes, mask.data() + i, sizeof bytes);
        if (bytes == 0) continue;
        for (std::size_t j = i; j < i + 8; ++j) {
            if (mask[j] != 0) t.add(net::LinkId{j});
        }
    }
    for (; i < mask.size(); ++i) {
        if (mask[i] != 0) t.add(net::LinkId{i});
    }
    return t;
}

template <class ShareOf>
std::optional<util::Money> OfferPool::priced(const Tally& tally, ShareOf&& share_of) const {
    POC_EXPECTS(tally.pool_ == this);
    util::Money total{};
    std::vector<net::LinkId> share;
    for (std::size_t p = 0; p < bids_.size(); ++p) {
        const BpBid& bid = bids_[p];
        if (!bid.has_bundle_overrides()) {
            total += bid.tiered(tally.additive_[p], tally.count_[p]);
            continue;
        }
        share.clear();
        share_of(p, share);
        const auto c = bid.cost(share);
        if (!c) return std::nullopt;
        total += *c;
    }
    return total + tally.additive_[bids_.size()];
}

std::optional<util::Money> OfferPool::total_cost(const std::vector<net::LinkId>& links) const {
    Tally t(*this);
    for (const net::LinkId l : links) t.add(l);
    return priced(t, [&](std::size_t p, std::vector<net::LinkId>& share) {
        for (const net::LinkId l : links) {
            if (party_by_link_[l.index()] == p) share.push_back(l);
        }
    });
}

std::optional<util::Money> OfferPool::total_cost(const net::Subgraph& sg) const {
    return total_cost(tally(sg), sg);
}

std::optional<util::Money> OfferPool::total_cost(const Tally& tally,
                                                 const net::Subgraph& sg) const {
    return priced(tally, [&](std::size_t p, std::vector<net::LinkId>& share) {
        for (const net::LinkId l : bids_[p].offered_links()) {
            if (sg.is_active(l)) share.push_back(l);
        }
    });
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
