// Sharded shared-nothing primary-path data plane (DESIGN.md §9).
//
// One epoch's flow computation — one SSSP per distinct demand source,
// per-demand path resolution, link-load and report accumulation — is
// partitioned into shard tasks that own contiguous ranges of a
// source-sorted TrafficMatrixSoA's source blocks. Shards share nothing
// mutable: each has its own SsspWorkspace, path buffer, dense
// link-load scratch, and staging arrays, so the parallel phase
// performs zero cross-shard writes. A serial merge then folds the
// per-source partials into the global result in ascending source
// order.
//
// Bit-identity across shard and thread counts (the §9 invariant):
// every floating-point operation belongs to one of two classes —
//   (a) per-source work, computed from that source's SSSP tree and its
//       demand block alone (the tree itself is a deterministic
//       Dijkstra, or a cache/repair-served copy proven bit-identical
//       to one), independent of any other source or shard; or
//   (b) the merge's fold over per-source partials, which always runs
//       in ascending source order whatever the shard boundaries were.
// Neither class depends on how source blocks are grouped into shards
// or scheduled onto threads, so the result is bit-identical for every
// `shards`/`threads` setting, including fully serial execution.
#pragma once

#include <cstdint>
#include <vector>

#include "net/path_cache.hpp"
#include "net/shortest_path.hpp"

namespace poc::net {

struct ShardOptions {
    SsspMetric metric = SsspMetric::kLength;
    /// Shard tasks to partition the source blocks into. 0 and 1 both
    /// run one task; values above the source count are clamped down.
    /// Execution granularity only; never affects results.
    std::size_t shards = 1;
    /// Threads executing shard tasks, counting the calling thread (0 or
    /// 1 = inline serial execution; util::parallel_for starts the rest
    /// per call). Schedule only; never affects results.
    std::size_t threads = 1;
    /// Optional shared tree cache (with optional dynamic repair, see
    /// net/path_cache.hpp): per-source trees are looked up there
    /// instead of recomputed. Thread-safe; served trees are
    /// bit-identical to cold Dijkstras, so results are unchanged.
    PathCache* cache = nullptr;
    /// Optional per-link external-ISP flag (indexed by link id) for
    /// the virtual_gbps_km accumulator. Null = no virtual links.
    const std::vector<bool>* is_virtual = nullptr;
};

/// The merged result of one sharded epoch: per-link loads plus the
/// scalar report accumulators, every demand riding its primary
/// (shortest) path capacity-obliviously.
struct ShardFlowResult {
    /// Routed gbps per link (indexed by link id; zero where unloaded).
    std::vector<double> link_load_gbps;
    /// Sum of routed demand volume (a routed demand carries its full
    /// gbps on its primary path; an unreachable one carries nothing).
    double routed_gbps = 0.0;
    /// Demand-volume-weighted path length sum (gbps · km). Under
    /// primary-path routing the routed path *is* the shortest path,
    /// and the per-path km fold reproduces the Dijkstra distance bit
    /// for bit, so this equals the weighted shortest-distance sum.
    double weighted_km = 0.0;
    /// gbps · km summed per traversed link (the virtual-share basis).
    double total_gbps_km = 0.0;
    double virtual_gbps_km = 0.0;
    /// Demands with routed volume / positive demands with no path.
    std::size_t admitted = 0;
    std::size_t unrouted = 0;
};

/// shard s owns source blocks [source_begin[s], source_begin[s+1]).
/// Ranges are contiguous in ascending source order — with region-major
/// node ids (topo/synthetic.hpp) a shard therefore owns geographically
/// contiguous regions — and boundaries balance demand counts.
struct ShardPlan {
    std::vector<std::uint32_t> source_begin;

    std::size_t shard_count() const noexcept {
        return source_begin.empty() ? 0 : source_begin.size() - 1;
    }
};

/// Partition `tm`'s source blocks into at most `shards` demand-balanced
/// contiguous ranges. Deterministic in (tm, shards); every shard is
/// nonempty. `shards` 0 is treated as 1.
ShardPlan plan_shards(const TrafficMatrixSoA& tm, std::size_t shards);

/// Reusable per-shard buffers. One workspace serves any sequence of
/// sharded_primary_flow calls; after the first call on a given
/// graph/matrix shape, subsequent serial cache-less calls perform zero
/// heap allocations (property-tested).
class ShardWorkspace {
public:
    ShardWorkspace() = default;
    ShardWorkspace(const ShardWorkspace&) = delete;
    ShardWorkspace& operator=(const ShardWorkspace&) = delete;

private:
    friend void sharded_primary_flow(const Subgraph&, const TrafficMatrixSoA&,
                                     const ShardOptions&, ShardWorkspace&, ShardFlowResult&);

    /// One source block's accumulators plus its slice of the staging
    /// arrays. All folds inside are over that block's demands in
    /// sorted order — shard-independent by construction.
    struct SourcePartial {
        double routed = 0.0;
        double weighted_km = 0.0;
        double gbps_km = 0.0;
        double virtual_gbps_km = 0.0;
        std::uint32_t admitted = 0;
        std::uint32_t unrouted = 0;
        std::uint32_t touched_begin = 0;
        std::uint32_t touched_end = 0;
    };

    struct Shard {
        SsspWorkspace sssp;
        /// Per-demand path buffer (source->dst link order), reused.
        std::vector<LinkId> path;
        /// One partial per owned source block, in block order.
        std::vector<SourcePartial> partials;
        /// Per-source sparse link-load deltas, concatenated in block
        /// order: links in first-touch order, deltas = fold of the
        /// block's demand volumes in sorted demand order.
        std::vector<std::uint32_t> touched_links;
        std::vector<double> touched_delta;
        /// Dense per-link scratch, generation-stamped so per-source
        /// reset is O(links touched), not O(link count).
        std::vector<double> scratch;
        std::vector<std::uint32_t> stamp;
        std::uint32_t generation = 0;
        /// Wall-clock run time of this shard's task (obs only; feeds
        /// the net.shard.imbalance gauge, never the result).
        double elapsed_ms = 0.0;
    };

    /// The current call's plan boundaries (block indices), reused so
    /// steady-state planning allocates nothing.
    std::vector<std::uint32_t> plan_;
    std::vector<Shard> shards_;
};

/// Run one sharded epoch over the active links of `sg`: per shard,
/// one SSSP per owned source (via `opt.cache` when set) and one path
/// resolution + accumulation pass per demand; then the deterministic
/// ascending-source merge into `out`. `out`'s storage is reused.
void sharded_primary_flow(const Subgraph& sg, const TrafficMatrixSoA& tm,
                          const ShardOptions& opt, ShardWorkspace& ws, ShardFlowResult& out);

}  // namespace poc::net
