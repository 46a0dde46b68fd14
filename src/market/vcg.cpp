#include "market/vcg.hpp"

#include <algorithm>
#include <mutex>
#include <utility>

#include "market/auction_cache.hpp"
#include "market/delta_reclear.hpp"
#include "obs/trace.hpp"

namespace poc::market {

const BpOutcome& AuctionResult::outcome(BpId bp) const {
    const auto it = outcome_index.find(bp);
    POC_EXPECTS(it != outcome_index.end());
    return outcomes[it->second];
}

namespace {

/// The removal order of every offered link, shared by all the heuristic
/// solves of one auction: each filters it to its available set instead
/// of sorting (windet.hpp). Sorted on first use, so an auction whose
/// every solve the memo answers never sorts; safe across pivot threads.
class AuctionRemovalOrder {
public:
    explicit AuctionRemovalOrder(const OfferPool& pool) : pool_(pool) {}

    const std::vector<net::LinkId>& get() const {
        std::call_once(once_, [this] { order_ = removal_order(pool_, pool_.offered_links()); });
        return order_;
    }

private:
    const OfferPool& pool_;
    mutable std::once_flag once_;
    mutable std::vector<net::LinkId> order_;
};

/// One winner-determination solve over `available`, memoized in `cache`
/// (if any) under `key`, the available set's.
std::optional<Selection> solve(const OfferPool& pool, const Oracle& oracle,
                               const std::vector<net::LinkId>& available, const LinkSetKey& key,
                               const AuctionOptions& opt, const AuctionRemovalOrder& order,
                               AuctionCache* cache) {
    if (cache) {
        if (const auto hit = cache->find_solve(key)) return *hit;
    }
    auto result = opt.exact ? select_links_exact(pool, oracle, available)
                            : select_links(pool, oracle, available, order.get(), opt.windet);
    if (cache) cache->store_solve(key, result);
    return result;
}

/// One BP's Clarke pivot. Reads only shared-const state (pool, oracle,
/// SL) and writes only its own memo overlay, if any, and touches no
/// other BP's outcome: pivots are independent by construction, so the
/// engine may run them concurrently and the results cannot depend on
/// scheduling.
BpOutcome clarke_pivot(const OfferPool& pool, const Oracle& oracle, const Selection& sl,
                       const BpBid& bid, const std::vector<net::LinkId>& without,
                       const LinkSetKey& key, const AuctionOptions& opt,
                       const AuctionRemovalOrder& order, AuctionCache* cache) {
    // Telemetry only (obs is a pure side channel): per-pivot latency
    // histogram plus a span in the epoch timeline.
    POC_OBS_SPAN("market.auction.pivot");
    POC_OBS_TIMER_MS("market.auction.pivot_ms", 0.0, 500.0, 50);
    POC_OBS_INC("market.auction.pivots");
    BpOutcome out;
    out.bp = bid.bp();
    out.name = bid.name();
    out.selected_links = pool.owned_subset(sl.links, bid.bp());
    const auto own_cost = bid.cost(out.selected_links);
    POC_ASSERT(own_cost.has_value());  // winners are always priced
    out.bid_cost = *own_cost;

    // Clarke pivot: re-solve with this BP's offers withdrawn.
    const auto sl_without = solve(pool, oracle, without, key, opt, order, cache);
    if (!sl_without) {
        // A(OL - L_alpha) empty: the paper's assumption is violated;
        // the pivot term is undefined. Pay the declared cost and
        // flag it.
        out.pivot_defined = false;
        out.payment = out.bid_cost;
    } else {
        out.cost_without = sl_without->cost;
        // The heuristic solver can return SL_-alpha worse than it
        // found SL (or, rarely, slightly better); clamp the
        // externality at zero so payments respect the VCG lower
        // bound P_alpha >= C_alpha(SL_alpha). With the exact solver
        // the externality is non-negative by optimality.
        const util::Money externality = std::max(util::Money{}, sl_without->cost - sl.cost);
        out.payment = out.bid_cost + externality;
    }
    out.pob =
        out.bid_cost.is_zero() ? 0.0 : util::ratio(out.payment - out.bid_cost, out.bid_cost);
    return out;
}

}  // namespace

std::optional<AuctionResult> run_auction(const OfferPool& pool, const Oracle& oracle,
                                         const AuctionOptions& opt) {
    POC_OBS_SPAN("market.run_auction");
    POC_OBS_INC("market.auction.runs");
    const std::size_t queries_before = oracle.query_count();
    // The memoization layer: the delta state's memo, engaged when the
    // context certifies its entries stay exact (verdicts and solves
    // are pure functions of the link set only for a fixed pool, oracle,
    // and option set; market/delta_reclear.hpp). The engine's control
    // flow is untouched — memo replay is the only difference — so
    // results are bit-identical to unmemoized solves.
    AuctionCache* cache_ptr = nullptr;
    if (opt.delta != nullptr) {
        if (const auto context = delta_context(pool, oracle, opt)) {
            opt.delta->begin_run(*context, delta_offer_digests(pool), opt.delta_max_links);
            cache_ptr = &opt.delta->cache();
        }
    }
    std::optional<CachingOracle> caching_oracle;
    const Oracle* engine_oracle = &oracle;
    if (cache_ptr != nullptr) {
        caching_oracle.emplace(oracle, *cache_ptr);
        engine_oracle = &*caching_oracle;
    }
    // Carried caches have lifetime tallies; difference them so the
    // result's diagnostics stay per-auction.
    const AuctionCache::Stats cache_before =
        cache_ptr != nullptr ? cache_ptr->stats() : AuctionCache::Stats{};

    const AuctionRemovalOrder order(pool);
    const auto sl = solve(pool, *engine_oracle, pool.offered_links(), pool.offered_links(), opt,
                          order, cache_ptr);
    if (!sl) {
        POC_OBS_INC("market.auction.infeasible");
        POC_OBS_COUNT("market.auction.oracle_queries", oracle.query_count() - queries_before);
        return std::nullopt;
    }

    AuctionResult result;
    result.selection = *sl;

    std::vector<net::LinkId> selected_virtual;
    for (const net::LinkId l : sl->links) {
        if (pool.is_virtual(l)) selected_virtual.push_back(l);
    }
    result.virtual_cost = pool.virtual_links().cost(selected_virtual);
    result.total_outlay = result.virtual_cost;

    const std::vector<BpBid>& bids = pool.bids();
    result.outcomes.resize(bids.size());
    // With the memo engaged, each pivot solves through a private overlay
    // over it. The memo stays as the winner solve left it until every
    // pivot is done; then the overlays are absorbed in bid order. So a
    // pivot's queries, hits and witness disarms depend only on that memo
    // and its own overlay, never on what runs beside it, and a serial
    // run does the same work as a parallel one.
    std::vector<std::vector<net::LinkId>> without;
    std::vector<LinkSetKey> keys;
    for (const BpBid& bid : bids) {
        without.push_back(pool.offered_links_without(bid.bp()));
        keys.emplace_back(without.back());
    }
    std::vector<AuctionCache> overlays;
    std::size_t unsolved = bids.size();
    if (cache_ptr != nullptr) {
        overlays.assign(bids.size(), AuctionCache(cache_ptr));
        unsolved = static_cast<std::size_t>(
            std::count_if(keys.begin(), keys.end(),
                          [&](const LinkSetKey& key) { return !cache_ptr->holds_solve(key); }));
    }
    // Fan out only over the pivots the memo cannot answer (a warm run's
    // usually all hit, and start no thread), and only for an oracle that
    // certifies purity: one with a fault hook sees its queries in serial
    // order. An engaged memo implies a fingerprint.
    std::size_t width = std::min(opt.threads, unsolved);
    if (width > 1 && cache_ptr == nullptr && !oracle.verdict_fingerprint()) width = 1;
    // The graph's adjacency index builds lazily on first use; warm it
    // before concurrent readers race to be that first use.
    if (width > 1) pool.graph().warm_adjacency();
    util::parallel_for(width, bids.size(), [&](std::size_t i) {
        if (cache_ptr == nullptr) {
            result.outcomes[i] =
                clarke_pivot(pool, oracle, *sl, bids[i], without[i], keys[i], opt, order, nullptr);
            return;
        }
        const CachingOracle pivot_oracle(oracle, overlays[i]);
        result.outcomes[i] = clarke_pivot(pool, pivot_oracle, *sl, bids[i], without[i], keys[i],
                                          opt, order, &overlays[i]);
    });
    for (AuctionCache& overlay : overlays) cache_ptr->absorb(std::move(overlay));

    // Serial assembly in bid order: the totals and the lookup index do
    // not depend on pivot completion order.
    result.outcome_index.reserve(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        result.total_outlay += result.outcomes[i].payment;
        result.outcome_index.emplace(result.outcomes[i].bp, i);
    }
    result.oracle_queries = oracle.query_count();
    if (cache_ptr) {
        const AuctionCache::Stats stats = cache_ptr->stats();
        result.oracle_cache_hits = stats.verdict_hits - cache_before.verdict_hits;
        result.solve_cache_hits = stats.solve_hits - cache_before.solve_hits;
        POC_OBS_COUNT("market.auction.oracle_cache_hits", result.oracle_cache_hits);
        POC_OBS_COUNT("market.auction.solve_cache_hits", result.solve_cache_hits);
    }
    // Real oracle evaluations attributable to this auction (exact: the
    // atomic lifetime count is differenced around the run).
    POC_OBS_COUNT("market.auction.oracle_queries", oracle.query_count() - queries_before);
    POC_OBS_COUNT("market.auction.outlay_microusd", result.total_outlay.micros());
    return result;
}

void write_links(util::BinaryWriter& w, const std::vector<net::LinkId>& links) {
    w.u64(links.size());
    for (const net::LinkId l : links) w.u32(l.value());
}

std::vector<net::LinkId> read_links(util::BinaryReader& r) {
    const std::uint64_t n = r.count(sizeof(std::uint32_t));
    std::vector<net::LinkId> links;
    links.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) links.push_back(net::LinkId{r.u32()});
    return links;
}

namespace {

/// Smallest encoded BpOutcome (empty name, no links): the u32 bp id,
/// two u64 length prefixes, three i64 amounts, the f64 pob and the
/// pivot flag.
constexpr std::size_t kMinOutcomeBytes = 4 + 2 * 8 + 3 * 8 + 8 + 1;

}  // namespace

void write_auction_result(util::BinaryWriter& w, const AuctionResult& result) {
    write_links(w, result.selection.links);
    w.i64(result.selection.cost.micros());
    w.i64(result.virtual_cost.micros());
    w.u64(result.outcomes.size());
    for (const BpOutcome& o : result.outcomes) {
        w.u32(o.bp.value());
        w.str(o.name);
        write_links(w, o.selected_links);
        w.i64(o.bid_cost.micros());
        w.i64(o.cost_without.micros());
        w.i64(o.payment.micros());
        w.f64(o.pob);
        w.boolean(o.pivot_defined);
    }
    w.i64(result.total_outlay.micros());
    w.u64(result.oracle_queries);
    w.u64(result.oracle_cache_hits);
    w.u64(result.solve_cache_hits);
}

AuctionResult read_auction_result(util::BinaryReader& r) {
    AuctionResult result;
    result.selection.links = read_links(r);
    result.selection.cost = util::Money::from_micros(r.i64());
    result.virtual_cost = util::Money::from_micros(r.i64());
    const std::uint64_t n = r.count(kMinOutcomeBytes);
    result.outcomes.resize(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        BpOutcome& o = result.outcomes[i];
        o.bp = BpId{r.u32()};
        o.name = r.str();
        o.selected_links = read_links(r);
        o.bid_cost = util::Money::from_micros(r.i64());
        o.cost_without = util::Money::from_micros(r.i64());
        o.payment = util::Money::from_micros(r.i64());
        o.pob = r.f64();
        o.pivot_defined = r.boolean();
    }
    result.total_outlay = util::Money::from_micros(r.i64());
    result.oracle_queries = r.u64();
    result.oracle_cache_hits = r.u64();
    result.solve_cache_hits = r.u64();
    result.outcome_index.reserve(result.outcomes.size());
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
        result.outcome_index.emplace(result.outcomes[i].bp, i);
    }
    return result;
}

}  // namespace poc::market
