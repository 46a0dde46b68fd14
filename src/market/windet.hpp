// Winner determination: SL = argmin C(L) over L in A(OL), the lowest-
// cost acceptable link set (paper section 3.3). The problem generalizes
// weighted set cover, so we provide:
//
//  * select_links        - scalable heuristic: batched reverse deletion
//                          with bisection, ordered by price-per-gbps,
//                          optionally followed by a single-link polish
//                          pass. Used at Figure 2 scale (thousands of
//                          offered links).
//  * select_links_exact  - branch-and-bound over subsets with monotone
//                          acceptability pruning and additive cost lower
//                          bounds. Exponential; for instances up to ~20
//                          links, and for the strategyproofness property
//                          tests (exact optimality is what VCG's
//                          incentive guarantee relies on).
#pragma once

#include <optional>
#include <vector>

#include "market/bid.hpp"
#include "market/constraints.hpp"

namespace poc::market {

/// A selected link set with its total cost C(SL).
struct Selection {
    std::vector<net::LinkId> links;
    util::Money cost;

    friend bool operator==(const Selection&, const Selection&) = default;
};

struct WinnerDeterminationOptions {
    /// Initial reverse-deletion batch size; halves on rejection.
    std::size_t batch_size = 64;
};

/// The reverse-deletion candidate order of `links`: highest price per
/// gbps first, ties by link id. The key is fixed per pool and the tie
/// break is total, so the order of a subset is the order of any
/// superset filtered to that subset.
std::vector<net::LinkId> removal_order(const OfferPool& pool,
                                       const std::vector<net::LinkId>& links);

/// Heuristic minimum-cost acceptable subset of `available`. Returns
/// nullopt when even the full available set is unacceptable.
std::optional<Selection> select_links(const OfferPool& pool, const Oracle& oracle,
                                      const std::vector<net::LinkId>& available,
                                      const WinnerDeterminationOptions& opt = {});

/// select_links with the removal order given: `order` is the
/// removal_order of a superset of `available` (e.g. of every offered
/// link, sorted once for all the solves of an auction); links outside
/// `available` are skipped. The result equals the overload above.
std::optional<Selection> select_links(const OfferPool& pool, const Oracle& oracle,
                                      const std::vector<net::LinkId>& available,
                                      const std::vector<net::LinkId>& order,
                                      const WinnerDeterminationOptions& opt = {});

/// Exact minimum-cost acceptable subset (branch and bound). Requires no
/// bundle overrides in any bid (the cost lower bound assumes additive-
/// with-tier pricing). Intended for small instances.
std::optional<Selection> select_links_exact(const OfferPool& pool,
                                            const Oracle& oracle,
                                            const std::vector<net::LinkId>& available);

}  // namespace poc::market
