// Memoization for the auction engine (DESIGN.md §5). Two tables, both
// keyed by the canonical form of a link set, LinkSetKey:
//
//  * verdict cache - AcceptabilityOracle answers. A verdict is a pure
//    function of the active set (for a fixed oracle), so a hit is an
//    exact replay, never an approximation: cached auction paths stay
//    bit-identical to the serial uncached path.
//  * solve memo    - whole winner-determination results keyed by the
//    available set, so a Clarke-pivot re-solve whose availability
//    coincides with an earlier solve (e.g. a BP that offered nothing)
//    reuses it outright.
//
// Not thread-safe, and needs not be: concurrent Clarke pivots each
// write to a private overlay (an AuctionCache with a `base`) over the
// winner solve's memo, which nothing writes while they run, and
// run_auction absorbs the overlays into that memo in bid order after the
// join. A pivot's lookups therefore see the same entries at every thread
// count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "market/windet.hpp"

namespace poc::market {

/// The canonical key of a link set: one bit per link id, packed 64 to a
/// word, with trailing all-zero words trimmed. Equal sets give equal
/// keys however they were described — an id list in any order, or a
/// Subgraph's activity mask over a graph of any size — and a set of L
/// links over ids below N costs N/8 bytes, not 4L. The hash is computed
/// once, at construction, and serves the table lookup.
class LinkSetKey {
public:
    /// Key of an id list; duplicates collapse. Implicit: an id list is
    /// the natural way to name a set.
    LinkSetKey(const std::vector<net::LinkId>& links);
    /// Key of the Subgraph's active links.
    explicit LinkSetKey(const net::Subgraph& sg);

    std::size_t hash() const noexcept { return hash_; }

    friend bool operator==(const LinkSetKey& a, const LinkSetKey& b) noexcept {
        return a.hash_ == b.hash_ && a.words_ == b.words_;
    }

    struct Hash {
        std::size_t operator()(const LinkSetKey& key) const noexcept { return key.hash(); }
    };

private:
    /// Trim trailing zero words, then hash what is left.
    void canonicalize();

    std::vector<std::uint64_t> words_;
    std::size_t hash_ = 0;
};

class AuctionCache {
public:
    struct Stats {
        std::size_t verdict_hits = 0;
        std::size_t verdict_misses = 0;
        std::size_t solve_hits = 0;
        std::size_t solve_misses = 0;
    };

    AuctionCache() = default;
    /// An overlay: lookups fall through to `base` and stores land here.
    /// `base` must outlive the overlay and not change while it is used.
    explicit AuctionCache(const AuctionCache* base) : base_(base) {}

    /// Cached oracle verdict for the link set, if any.
    std::optional<bool> find_verdict(const LinkSetKey& key);
    void store_verdict(const LinkSetKey& key, bool verdict);

    /// Cached winner-determination result for the available set. The
    /// outer optional distinguishes "not cached" from a cached
    /// infeasible solve (inner nullopt).
    std::optional<std::optional<Selection>> find_solve(const LinkSetKey& key);
    void store_solve(const LinkSetKey& key, const std::optional<Selection>& result);
    /// Whether the solve is cached, without counting a hit or a miss.
    bool holds_solve(const LinkSetKey& key) const;

    /// Move an overlay's entries and tallies into this cache. Entries
    /// this cache already holds stay (equal keys hold equal values).
    void absorb(AuctionCache&& overlay);

    const Stats& stats() const noexcept { return stats_; }

    /// Whether both caches memoize the same verdicts and solves (their
    /// own entries: bases and tallies aside).
    bool same_entries(const AuctionCache& other) const {
        return verdicts_ == other.verdicts_ && solves_ == other.solves_;
    }

    /// Drop every memoized verdict and solve. The hit/miss tallies are
    /// lifetime counters and survive (callers difference them around a
    /// run). Used by delta re-clearing (market/delta_reclear.hpp) when
    /// the cross-epoch context changes and carried entries would be
    /// unsound.
    void clear();

private:
    const AuctionCache* base_ = nullptr;
    std::unordered_map<LinkSetKey, bool, LinkSetKey::Hash> verdicts_;
    std::unordered_map<LinkSetKey, std::optional<Selection>, LinkSetKey::Hash> solves_;
    Stats stats_;
};

/// Oracle decorator that answers from an AuctionCache and delegates to
/// the wrapped oracle on a miss. The wrapped oracle's query_count()
/// keeps counting only real evaluations, which is what
/// AuctionResult::oracle_queries reports — exact with caching on.
class CachingOracle final : public Oracle {
public:
    CachingOracle(const Oracle& inner, AuctionCache& cache) : inner_(&inner), cache_(&cache) {}

    /// The decorator adds memoization, not semantics: purity is the
    /// wrapped oracle's to certify.
    std::optional<std::uint64_t> verdict_fingerprint() const override {
        return inner_->verdict_fingerprint();
    }

private:
    bool accepts_impl(const net::Subgraph& sg) const override { return lookup(sg, nullptr); }
    bool accepts_witnessed(const net::Subgraph& sg, OracleWitness& witness) const override {
        return lookup(sg, &witness);
    }
    /// A hit answers here; a miss asks the wrapped oracle, passing the
    /// witness down. A hit that accepts disarms the witness, since the
    /// wrapped oracle never ran on the set the pass now commits.
    bool lookup(const net::Subgraph& sg, OracleWitness* witness) const;

    const Oracle* inner_;
    AuctionCache* cache_;
};

}  // namespace poc::market
