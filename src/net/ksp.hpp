// Yen's algorithm for the k shortest loopless paths. The multi-commodity
// routing in the feasibility oracle and the per-pair failure model
// (constraint #3 of the auction, paper section 3.3) both work over a
// candidate path set per commodity; Yen provides that set.
#pragma once

#include <vector>

#include "net/shortest_path.hpp"

namespace poc::net {

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
/// would otherwise compute again as its first path. Lets a caller that
/// only sometimes needs more than one path (greedy routing) pay for the
/// other k-1 only then. Identical results to the LinkWeight overloads
/// given the same doubles. With a `footprint`, the links of every spur
/// path a search returns are appended to it, whether or not that spur's
/// candidate is picked (greedy routing's footprint, net/mcf.hpp). The
/// searches and the root-node masking scan `incidence`, an
/// ActiveAdjacency built from `sg` or from a set containing it.
std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, const ActiveAdjacency& incidence,
                                         NodeId src, NodeId dst, const LinkWeightArray& weight,
                                         std::size_t k, SsspWorkspace& ws, WeightedPath first,
                                         std::vector<LinkId>* footprint = nullptr);

}  // namespace poc::net
