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
// Thread-safe: the pivot re-solves of run_auction share one cache
// across the work-stealing pool. The verdict table is sharded to keep
// lock contention off the hot path; hit/miss tallies are atomics so the
// accounting stays exact under concurrency.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
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
/// once, at construction, and serves both the shard pick and the table.
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

    /// Cached oracle verdict for the link set, if any.
    std::optional<bool> find_verdict(const LinkSetKey& key) const;
    void store_verdict(const LinkSetKey& key, bool verdict);

    /// Cached winner-determination result for the available set. The
    /// outer optional distinguishes "not cached" from a cached
    /// infeasible solve (inner nullopt).
    std::optional<std::optional<Selection>> find_solve(const LinkSetKey& key) const;
    void store_solve(const LinkSetKey& key, const std::optional<Selection>& result);

    Stats stats() const;

    /// Drop every memoized verdict and solve. The hit/miss tallies are
    /// lifetime counters and survive (callers difference them around a
    /// run). Used by delta re-clearing (market/delta_reclear.hpp) when
    /// the cross-epoch context changes and carried entries would be
    /// unsound.
    void clear();

private:
    struct Shard {
        mutable std::mutex mutex;
        std::unordered_map<LinkSetKey, bool, LinkSetKey::Hash> verdicts;
    };
    static constexpr std::size_t kShards = 16;

    Shard& shard_for(const LinkSetKey& key) const { return shards_[key.hash() % kShards]; }

    mutable Shard shards_[kShards];
    mutable std::mutex solve_mutex_;
    std::unordered_map<LinkSetKey, std::optional<Selection>, LinkSetKey::Hash> solves_;

    mutable std::atomic<std::size_t> verdict_hits_{0};
    mutable std::atomic<std::size_t> verdict_misses_{0};
    mutable std::atomic<std::size_t> solve_hits_{0};
    mutable std::atomic<std::size_t> solve_misses_{0};
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
