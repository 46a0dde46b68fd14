#include "market/auction_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <span>

namespace poc::market {

LinkSetKey::LinkSetKey(const std::vector<net::LinkId>& links) {
    std::size_t bits = 0;
    for (const net::LinkId l : links) bits = std::max(bits, l.index() + 1);
    words_.assign((bits + 63) / 64, 0);
    for (const net::LinkId l : links) {
        words_[l.index() / 64] |= std::uint64_t{1} << (l.index() % 64);
    }
    canonicalize();
}

namespace {

static_assert(std::endian::native == std::endian::little,
              "pack8 reads eight mask bytes with one little-endian load");

/// Bit b of the result is byte b of `bytes`, for bytes that are 0 or 1
/// (every Subgraph mask byte is: see Subgraph::set_active). One load;
/// the multiply gathers each byte's low bit into the top byte with no
/// carries between them (every partial product lands on its own bit).
std::uint8_t pack8(const char* bytes) {
    std::uint64_t x;
    std::memcpy(&x, bytes, sizeof x);
    return static_cast<std::uint8_t>((x * 0x0102040810204080ULL) >> 56);
}

}  // namespace

LinkSetKey::LinkSetKey(const net::Subgraph& sg) {
    const std::span<const char> mask = sg.mask();
    words_.resize((mask.size() + 63) / 64);
    for (std::size_t w = 0; w < words_.size(); ++w) {
        // Accumulate in a local: a store through words_ inside the loop
        // could alias the char mask and would be redone per load.
        const std::size_t begin = w * 64;
        const std::size_t end = std::min(begin + 64, mask.size());
        std::uint64_t bits = 0;
        std::size_t i = begin;
        for (; i + 8 <= end; i += 8) bits |= std::uint64_t{pack8(mask.data() + i)} << (i - begin);
        for (; i < end; ++i) bits |= std::uint64_t{mask[i] != 0} << (i - begin);
        words_[w] = bits;
    }
    canonicalize();
}

void LinkSetKey::canonicalize() {
    while (!words_.empty() && words_.back() == 0) words_.pop_back();
    // One multiply and one xorshift per word, then a full avalanche
    // (splitmix64's finalizer) so the low bits that pick the bucket
    // depend on every word. Only lookups read the hash:
    // nothing persists it or iterates the tables in its order.
    std::uint64_t h = words_.size();
    for (const std::uint64_t w : words_) {
        h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
        h ^= h >> 32;
    }
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
    hash_ = static_cast<std::size_t>(h ^ (h >> 31));
}

namespace {

/// The entry for `key` in `base` (the base cache's table, if any) or,
/// failing that, in `table`; null when neither holds it. A key is in at
/// most one of them: an overlay stores only after missing both.
template <typename Value>
const Value* find_in(const std::unordered_map<LinkSetKey, Value, LinkSetKey::Hash>& table,
                     const std::unordered_map<LinkSetKey, Value, LinkSetKey::Hash>* base,
                     const LinkSetKey& key) {
    if (base != nullptr) {
        if (const auto it = base->find(key); it != base->end()) return &it->second;
    }
    const auto it = table.find(key);
    return it == table.end() ? nullptr : &it->second;
}

}  // namespace

std::optional<bool> AuctionCache::find_verdict(const LinkSetKey& key) {
    const bool* found = find_in(verdicts_, base_ ? &base_->verdicts_ : nullptr, key);
    if (found == nullptr) {
        ++stats_.verdict_misses;
        return std::nullopt;
    }
    ++stats_.verdict_hits;
    return *found;
}

void AuctionCache::store_verdict(const LinkSetKey& key, bool verdict) {
    verdicts_.emplace(key, verdict);
}

std::optional<std::optional<Selection>> AuctionCache::find_solve(const LinkSetKey& key) {
    const auto* found = find_in(solves_, base_ ? &base_->solves_ : nullptr, key);
    if (found == nullptr) {
        ++stats_.solve_misses;
        return std::nullopt;
    }
    ++stats_.solve_hits;
    return *found;
}

void AuctionCache::store_solve(const LinkSetKey& key, const std::optional<Selection>& result) {
    solves_.emplace(key, result);
}

bool AuctionCache::holds_solve(const LinkSetKey& key) const {
    return find_in(solves_, base_ ? &base_->solves_ : nullptr, key) != nullptr;
}

void AuctionCache::absorb(AuctionCache&& overlay) {
    verdicts_.merge(overlay.verdicts_);
    solves_.merge(overlay.solves_);
    stats_.verdict_hits += overlay.stats_.verdict_hits;
    stats_.verdict_misses += overlay.stats_.verdict_misses;
    stats_.solve_hits += overlay.stats_.solve_hits;
    stats_.solve_misses += overlay.stats_.solve_misses;
}

void AuctionCache::clear() {
    verdicts_.clear();
    solves_.clear();
}

bool CachingOracle::lookup(const net::Subgraph& sg, OracleWitness* witness) const {
    const LinkSetKey key(sg);
    if (const auto cached = cache_->find_verdict(key)) {
        if (*cached && witness != nullptr) witness->disarm();
        return *cached;
    }
    const bool verdict = inner_->accepts(sg, witness);
    cache_->store_verdict(key, verdict);
    return verdict;
}

}  // namespace poc::market
