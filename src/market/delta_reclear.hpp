// Warm-started winner determination across epochs (DESIGN.md §7).
//
// An AuctionCache memoizes oracle verdicts and whole pivot solves, and
// DeltaReclearState is the auction's only way to engage one: a fresh
// state is exactly a per-auction memo, since its first run is cold.
// Between epochs the offered pool
// usually changes by a handful of links (faults, withdrawals, repairs)
// while everything else — graph weights, traffic matrix, constraint,
// per-link pricing — stays put. Under those conditions every cached
// entry remains exactly valid:
//
//  * a verdict is a pure function of (active set, oracle fingerprint);
//    the pool is not involved at all, so verdicts survive any pool
//    reshaping as long as the oracle fingerprints match;
//  * a solve keyed by an availability set depends, beyond the oracle,
//    only on the pricing of links *inside* that set (reverse deletion
//    orders and prices members of the set; C_alpha(L cap L_alpha) reads
//    the owner's base prices and discount tiers for those links only).
//    Entries therefore survive link withdrawals and additions, provided
//    every link present in both epochs kept its owner, base price, and
//    owner tier schedule.
//
// DeltaReclearState carries one AuctionCache across run_auction calls
// and enforces exactly those conditions at each run boundary: when the
// context digest matches, every common link's pricing digest matches,
// and the offered sets differ by at most `max_links` links, the carried
// memo is kept (warm run); otherwise it is dropped and the run solves
// cold. Warm and cold runs are bit-identical by construction — the
// delta path never alters the engine's control flow, it only replays
// memoized pure sub-results — so the threshold is purely a
// performance/memory knob, never a correctness one.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "market/auction_cache.hpp"
#include "market/vcg.hpp"

namespace poc::market {

/// One offered link's cross-epoch pricing identity: owner, base price,
/// and the owner's discount-tier schedule, digested. Two epochs may
/// share memo entries only where the digests of their common links
/// agree (see delta_offer_digests).
struct OfferDigest {
    net::LinkId link;
    std::uint64_t digest = 0;
};

/// The carried warm-start state. One instance per auction *sequence*
/// (a chaos run, a scenario, an epoch runtime); run_auction consults it
/// through AuctionOptions::delta. Not thread-safe, and needs not be:
/// begin_run happens serially at each auction boundary, and concurrent
/// Clarke pivots write only to their own overlays over the cache it
/// hands out (market/auction_cache.hpp).
class DeltaReclearState {
public:
    struct Stats {
        /// begin_run calls (= auctions that engaged the delta path).
        std::uint64_t runs = 0;
        /// Runs that kept the carried memo.
        std::uint64_t warm = 0;
        /// Runs that dropped it (first run, context change, pricing
        /// change on a common link, or delta above the threshold).
        std::uint64_t cold = 0;
        /// Sum of offered-set symmetric differences over warm runs.
        std::uint64_t delta_links = 0;
    };

    /// Decide warm vs cold for the coming auction and install its
    /// offered-set digests as the new baseline. Warm requires: a prior
    /// run, an equal context digest, pricing digests equal on every
    /// common link, and a symmetric difference of at most `max_links`
    /// links. A cold decision clears the carried cache. Returns warm.
    bool begin_run(std::uint64_t context, std::vector<OfferDigest> offered,
                   std::size_t max_links);

    /// The carried memo, for run_auction to use as its cache.
    AuctionCache& cache() noexcept { return cache_; }

    const Stats& stats() const noexcept { return stats_; }

    /// Forget everything (next run is cold).
    void reset();

private:
    AuctionCache cache_;
    bool primed_ = false;
    std::uint64_t context_ = 0;
    std::vector<OfferDigest> prev_;
    Stats stats_;
};

/// The context digest for a (pool, oracle, options) triple: the oracle's
/// purity fingerprint plus every engine knob that shapes solve results.
/// nullopt when cross-run reuse cannot be certified — the oracle opted
/// out (no fingerprint), or a bid carries bundle overrides (their exact
/// subset pricing cannot be attributed to individual links, so the
/// per-link digest compatibility check below would be unsound).
std::optional<std::uint64_t> delta_context(const OfferPool& pool, const Oracle& oracle,
                                           const AuctionOptions& opt);

/// Per-link pricing digests of the pool's offered set, in id order
/// (the canonical form everything in the engine uses).
std::vector<OfferDigest> delta_offer_digests(const OfferPool& pool);

}  // namespace poc::market
