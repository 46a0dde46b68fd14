#include "market/delta_reclear.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace poc::market {

bool DeltaReclearState::begin_run(std::uint64_t context, std::vector<OfferDigest> offered,
                                  std::size_t max_links) {
    ++stats_.runs;
    bool warm = primed_ && context == context_;
    std::size_t delta = 0;
    if (warm) {
        // Merge-walk the two id-ordered digest lists: count links on
        // one side only (the delta), and require byte-equal digests on
        // links present in both epochs.
        std::size_t i = 0;
        std::size_t j = 0;
        while (warm && (i < prev_.size() || j < offered.size())) {
            if (j == offered.size() || (i < prev_.size() && prev_[i].link < offered[j].link)) {
                ++delta;
                ++i;
            } else if (i == prev_.size() || offered[j].link < prev_[i].link) {
                ++delta;
                ++j;
            } else {
                if (prev_[i].digest != offered[j].digest) warm = false;
                ++i;
                ++j;
            }
            if (delta > max_links) warm = false;
        }
    }
    if (warm) {
        ++stats_.warm;
        stats_.delta_links += delta;
        POC_OBS_INC("market.delta.warm_runs");
        POC_OBS_COUNT("market.delta.delta_links", delta);
    } else {
        cache_.clear();
        ++stats_.cold;
        POC_OBS_INC("market.delta.cold_runs");
    }
    context_ = context;
    prev_ = std::move(offered);
    primed_ = true;
    return warm;
}

void DeltaReclearState::reset() {
    cache_.clear();
    primed_ = false;
    context_ = 0;
    prev_.clear();
}

std::optional<std::uint64_t> delta_context(const OfferPool& pool, const Oracle& oracle,
                                           const AuctionOptions& opt) {
    const auto oracle_fp = oracle.verdict_fingerprint();
    if (!oracle_fp) return std::nullopt;
    for (const BpBid& b : pool.bids()) {
        if (b.has_bundle_overrides()) return std::nullopt;
    }
    util::Fnv64 h;
    h.add(*oracle_fp);
    h.add(opt.exact ? 1u : 0u);
    h.add(opt.windet.batch_size);
    return h.value();
}

std::vector<OfferDigest> delta_offer_digests(const OfferPool& pool) {
    std::vector<OfferDigest> out;
    out.reserve(pool.offered_links().size());
    for (const net::LinkId l : pool.offered_links()) {
        util::Fnv64 h;
        const BpId bp = pool.owner(l);
        if (bp.valid()) {
            const BpBid& b = pool.bid(bp);
            h.add(bp.value());
            h.add_i64(b.base_price(l).micros());
            // The whole tier schedule folds into every owned link:
            // C_alpha of any subset containing the link reads it.
            h.add(b.discounts().size());
            for (const DiscountTier& t : b.discounts()) {
                h.add(t.min_links);
                h.add_f64(t.fraction);
            }
        } else {
            h.add(~std::uint64_t{0});
            h.add_i64(pool.virtual_links().price(l).micros());
        }
        out.push_back({l, h.value()});
    }
    return out;
}

}  // namespace poc::market
