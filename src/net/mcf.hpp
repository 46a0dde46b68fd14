// Multi-commodity flow machinery for the auction's acceptability oracle
// A(OL) (paper section 3.3): given a candidate set of leased links, can
// the POC route its traffic-matrix upper bound?
//
// Exact fractional MCF is an LP; instead we provide two practical
// oracles, both standard in traffic-engineering practice:
//
//  * greedy_path_routing - fast water-filling over k-shortest candidate
//    paths (lazy: the later candidates only when the shortest path
//    falls short). Sufficient (not necessary): success proves
//    feasibility.
//  * max_concurrent_flow - Fleischer's FPTAS for maximum concurrent
//    flow. Returns a certified-feasible throughput factor lambda such
//    that lambda >= (1-eps)^2 * OPT; lambda >= 1 proves the matrix fits.
//
// The winner-determination search uses the cheap oracle first and falls
// back to the FPTAS.
#pragma once

#include <optional>
#include <vector>

#include "net/graph.hpp"
#include "net/ksp.hpp"
#include "net/shortest_path.hpp"

namespace poc::net {

/// A fractional routing: per demand, a set of paths with assigned rates.
struct CommodityRouting {
    /// routes[d] lists (path, gbps) pairs for tm[d]; rates sum to at
    /// most tm[d].gbps (equality when the routing is complete).
    std::vector<std::vector<std::pair<std::vector<LinkId>, double>>> routes;

    /// Total gbps placed on each link by this routing.
    std::vector<double> link_load(const Graph& g) const;
};

/// Per-commodity link exclusions: exclusions[d] lists links that demand
/// tm[d] must not traverse (used by the per-pair failure constraint,
/// where each demand avoids its own failed primary path).
using CommodityExclusions = std::vector<std::vector<LinkId>>;

/// Scratch for greedy_path_routing, reusable across runs on any graphs
/// (DESIGN.md §6). A run writes only its active links' entries of the
/// per-link arrays and never reads an inactive link's entry, so it does
/// not clear them, and what an earlier run left there cannot reach a
/// result. (Resizing to a larger graph fills only the new entries.)
struct GreedyWorkspace {
    /// The incidence greedy's searches scan. A caller that passes the
    /// workspace builds it (`incidence.assign(sg)`, or from a set that
    /// contains sg's active links) before the run; greedy reads it as is.
    ActiveAdjacency incidence;
    /// Greedy's scratch: per-link residual capacity and congestion
    /// weight, the usable view, the search workspace.
    std::vector<double> residual;
    LinkWeightArray weight;
    std::optional<Subgraph> usable;
    SsspWorkspace sssp;
    /// Per-demand scratch: the shortest path, Yen's later candidates,
    /// the (link, weight) pairs the demand's placements overwrote, and
    /// the excluded links to restore.
    WeightedPath first;
    YenPaths yen;
    std::vector<std::pair<LinkId, double>> weight_undo;
    std::vector<LinkId> excluded_undo;
};

/// One greedy run, demand by demand in placement order (largest first,
/// skipped demands included): what a later run over a subset of its
/// set replays instead of searching (DESIGN.md §6).
struct GreedyLog {
    /// A placed path: path_links[the previous placement's links_end,
    /// links_end) carrying `gbps`.
    struct Placement {
        std::size_t links_end = 0;
        double gbps = 0.0;
        bool operator==(const Placement&) const = default;
    };
    /// Where one demand's entries end in `footprint` and `placements`.
    struct DemandEnd {
        std::size_t footprint = 0;
        std::size_t placements = 0;
        bool operator==(const DemandEnd&) const = default;
    };

    /// The run's footprint, in search order, so each demand's searches
    /// form a segment: every link of every path a shortest-path search
    /// returned (duplicates included), each demand's first path and the
    /// spur paths of every Yen step the run took, also those of
    /// candidates the placement never used. Removing links outside the
    /// footprint leaves the run unchanged (DESIGN.md §6), which is what
    /// the acceptability oracle's certificate rests on.
    std::vector<LinkId> footprint;
    std::vector<LinkId> path_links;
    std::vector<Placement> placements;
    /// One entry per demand the run finished, in placement order.
    std::vector<DemandEnd> demands;

    void clear();

    /// How many of the logged demands come before the first whose
    /// footprint segment lost a link in `sg`: a run over `sg` may replay
    /// that many. demands.size() when `sg` keeps the whole footprint.
    std::size_t intact_demands(const Subgraph& sg) const;

    bool operator==(const GreedyLog&) const = default;
};

struct GreedyRoutingOptions {
    /// Capacity headroom: links are filled only to this fraction.
    double utilization_cap = 1.0;
    /// Optional per-commodity forbidden links (size == tm.size()).
    const CommodityExclusions* exclusions = nullptr;
    /// Optional scratch reused across runs, its incidence already built
    /// (see GreedyWorkspace). Null: a local workspace, built from `sg`.
    /// The routing is the same either way.
    GreedyWorkspace* workspace = nullptr;
    /// Optional output: the run's log (cleared first), up to the demand
    /// that did not fit, its footprint included (GreedyLog::footprint).
    GreedyLog* log = nullptr;
    /// Optional input: replay the first `resume_demands` demands of
    /// `resume` (not `log`) instead of searching for them. `resume` must
    /// log a run with the same traffic matrix, cap and exclusions over a
    /// set that contains `sg`, and `sg` must keep those demands'
    /// footprint segments (resume_demands <= resume->intact_demands(sg)).
    /// The routing, footprint and log are then those of a full run.
    const GreedyLog* resume = nullptr;
    std::size_t resume_demands = 0;
};

/// Water-filling over up to 4 Yen candidate paths per demand, demands
/// placed largest-first, under a congestion metric (length scaled up as
/// residual capacity shrinks). Returns the routing if every demand fits
/// entirely, nullopt otherwise.
///
/// Work is proportional to what the result reads: the metric lives in a
/// flat per-link array refreshed only on links a placement touched, and
/// Yen finds candidate i + 1 only when the placement loop reaches it
/// with demand still unplaced, under the weights the demand started
/// with. The routing is the same as computing all four candidates per
/// demand under a per-relaxation weight function.
std::optional<CommodityRouting> greedy_path_routing(const Subgraph& sg, const TrafficMatrix& tm,
                                                    const GreedyRoutingOptions& opt = {});

/// True when greedy_path_routing routes `d`; it skips demands of 1e-12
/// gbps or less.
bool greedy_routes(const Demand& d);

/// The least flow a successful greedy_path_routing places for a demand
/// it routes: the volume less the completion tolerance of
/// 1e-9 · max(1, gbps). Negative for a demand within the tolerance.
double greedy_fit_floor(const Demand& d);

/// True when greedy_path_routing can fit `d` only by placing at least
/// one path for it, so a successful routing proves the demand's
/// endpoints connected over the active links. False for demands within
/// the completion tolerance (at most 1e-9 gbps, or NaN), which can fit
/// with no path at all.
bool greedy_success_connects(const Demand& d);

struct ConcurrentFlowResult {
    /// Certified feasible throughput: every demand can simultaneously
    /// route lambda * its volume. lambda >= 1 ==> the matrix fits.
    double lambda = 0.0;
    /// The scaled-feasible routing achieving lambda.
    CommodityRouting routing;
};

/// Fleischer's max-concurrent-flow approximation. eps in (0, 0.5].
/// Demands whose endpoints are unreachable (under their exclusions)
/// yield lambda = 0.
ConcurrentFlowResult max_concurrent_flow(const Subgraph& sg, const TrafficMatrix& tm,
                                         double eps = 0.1,
                                         const CommodityExclusions* exclusions = nullptr);

/// Combined feasibility oracle: greedy first, FPTAS fallback.
/// `fptas_eps` controls the fallback's precision/speed trade-off. With
/// a `workspace`, greedy builds sg's incidence into it and runs there,
/// reusing its buffers; the verdict is the same.
bool is_routable(const Subgraph& sg, const TrafficMatrix& tm, double fptas_eps = 0.15,
                 const CommodityExclusions* exclusions = nullptr,
                 GreedyWorkspace* workspace = nullptr);

}  // namespace poc::net
