// Yen's algorithm for the k shortest loopless paths. The multi-commodity
// routing in the feasibility oracle and the per-pair failure model
// (constraint #3 of the auction, paper section 3.3) both work over a
// candidate path set per commodity; Yen provides that set.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "net/shortest_path.hpp"

namespace poc::net {

/// Yen's algorithm one path at a time (DESIGN.md §6). reset() starts
/// from the shortest path; each advance() finds the next one. The
/// searches are those eager Yen makes, in the same order, so after
/// k − 1 advances the paths are yen_k_shortest's k paths, and a caller
/// that stops early has made a prefix of its searches. The buffers are
/// kept across reset()s, so a warm object allocates nothing.
class YenPaths {
public:
    /// Start over for src -> dst paths over `sg`'s active links, from
    /// `first`: the path shortest_path returns over `sg` under the
    /// weights every later advance() passes. `sg` is copied (the spur
    /// searches' mask), so later changes to it do not reach the search.
    /// The searches and the root-node masking scan `incidence`, an
    /// ActiveAdjacency built from `sg` or from a set containing it; it
    /// must outlive the search.
    void reset(const Subgraph& sg, const ActiveAdjacency& incidence, NodeId src, NodeId dst,
               const WeightedPath& first);

    /// Find the next path, in non-decreasing weight: eager Yen's next
    /// iteration, its spur searches from the last path found and then
    /// the best candidate not already found. False, with no path added,
    /// when the subgraph holds no further loopless path. `weight` must
    /// hold the same doubles at every call (size == link_count()). With
    /// a `footprint`, the links of every spur path a search returns are
    /// appended to it, whether or not that spur's candidate is picked.
    bool advance(const LinkWeightArray& weight, SsspWorkspace& ws,
                 std::vector<LinkId>* footprint = nullptr);

    /// The number of paths found so far (at least 1 after reset()).
    std::size_t size() const noexcept { return found_; }

    /// The i-th path found; path(0) is `first`.
    const WeightedPath& path(std::size_t i) const {
        POC_EXPECTS(i < found_);
        return paths_[i];
    }

private:
    /// Take the best candidate into paths_[found_]; false when none.
    bool pop_candidate();

    const ActiveAdjacency* incidence_ = nullptr;
    NodeId src_;
    NodeId dst_;
    /// Mutated and restored around each spur search.
    std::optional<Subgraph> work_;
    /// paths_[0, found_) are the paths found; the rest keep capacity.
    std::vector<WeightedPath> paths_;
    std::size_t found_ = 0;
    /// candidates_[0, candidate_count_) are the candidates, deduplicated
    /// on (weight, links) as an ordered set would; the rest keep
    /// capacity. The best is the least (weight, links).
    std::vector<WeightedPath> candidates_;
    std::size_t candidate_count_ = 0;
    /// Per-advance scratch.
    std::vector<NodeId> prev_nodes_;
    std::vector<LinkId> removed_;
    WeightedPath spur_;
};

/// Up to k shortest loopless paths from src to dst over active links,
/// ordered by non-decreasing weight. Fewer than k are returned when the
/// subgraph does not contain k distinct loopless paths. Requires k >= 1
/// and non-negative weights.
std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeight& weight, std::size_t k);

/// yen_k_shortest with every internal SSSP run through a reusable
/// workspace. Identical results; the per-spur tree allocations of the
/// convenience overload disappear.
std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeight& weight, std::size_t k,
                                         SsspWorkspace& ws);

/// yen_k_shortest over flat per-link weights, started from `first`: the
/// src->dst path shortest_path returns under the same weights, which Yen
/// would otherwise compute again as its first path. Identical results to
/// the LinkWeight overloads given the same doubles. `incidence` is as
/// for YenPaths, which this runs k − 1 steps of.
std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, const ActiveAdjacency& incidence,
                                         NodeId src, NodeId dst, const LinkWeightArray& weight,
                                         std::size_t k, SsspWorkspace& ws,
                                         const WeightedPath& first);

}  // namespace poc::net
