// Flow-level simulation of the provisioned backbone: route the actual
// traffic, report utilization, path stretch, and how much rides the
// external-ISP virtual links (the fallback of section 3.3). The paper
// leaves packet-level operation to "industry best practices"; flow
// granularity is sufficient for every quantity it discusses.
#pragma once

#include <vector>

#include "net/mcf.hpp"
#include "net/path_cache.hpp"
#include "net/shard.hpp"

namespace poc::core {

/// Which data plane routes an epoch's traffic. This is a *semantic*
/// choice — the two modes route demands differently and produce
/// different reports — so unlike the other options below it is part of
/// the journal meta fingerprint (sim/replay.cpp).
enum class FlowRouting : std::uint8_t {
    /// The seed behavior: greedy capacity-aware water-filling with a
    /// concurrent-flow fallback when the matrix does not fit. Serial
    /// by nature (each admission sees the loads of all earlier ones).
    kGreedy = 0,
    /// Sharded shared-nothing primary-path routing (net/shard.hpp,
    /// DESIGN.md §9): every demand rides its shortest-by-length path
    /// capacity-obliviously. Scales to 10^5 nodes / 10^6 demands and
    /// is bit-identical for every shard/thread count.
    kPrimary = 1,
};

/// Scratch a sequence of flow passes reuses (sim::Engine keeps one per
/// run): greedy's workspace under kGreedy, the source-sorted matrix and
/// the per-shard buffers under kPrimary. Any graph and matrix may follow
/// any other; nothing a pass leaves here reaches the next one's report.
struct FlowWorkspace {
    net::GreedyWorkspace greedy;
    net::TrafficMatrixSoA tm_soa;
    net::ShardWorkspace shards;
};

/// Data-plane options (DESIGN.md §6/§9). Every setting other than
/// `routing` gives the same report as the defaults, bit for bit.
struct FlowSimOptions {
    /// Shared shortest-path-tree cache for the per-source SSSP passes
    /// (stretch metric under kGreedy, the routing itself under
    /// kPrimary). Null computes the trees locally.
    net::PathCache* path_cache = nullptr;
    /// Data-plane selection (semantic; fingerprinted).
    FlowRouting routing = FlowRouting::kGreedy;
    /// Optional scratch reused across calls. Null: a local workspace.
    FlowWorkspace* workspace = nullptr;
};

struct FlowReport {
    double total_offered_gbps = 0.0;
    double total_routed_gbps = 0.0;
    bool fully_routed = false;

    /// Utilization = load / capacity over links that carry traffic.
    double max_utilization = 0.0;
    double mean_utilization = 0.0;
    /// Per-link load (indexed by link id; zero for inactive links).
    std::vector<double> link_load_gbps;

    /// Demand-weighted mean routed path length (km) and the mean
    /// shortest-possible length (stretch = routed / shortest).
    double mean_path_km = 0.0;
    double mean_shortest_km = 0.0;
    double stretch = 1.0;

    /// Share of total gbps-km carried on virtual (external-ISP) links.
    double virtual_share = 0.0;
};

/// Route `tm` over the backbone and measure. `is_virtual` flags links
/// that are external-ISP virtual links (may be empty if none). Under
/// kPrimary the sharded pass runs as one shard on the calling thread;
/// the report is the same at any width (net/shard.hpp).
FlowReport simulate_flows(const net::Subgraph& backbone, const net::TrafficMatrix& tm,
                          const std::vector<bool>& is_virtual = {},
                          const FlowSimOptions& opt = {});

}  // namespace poc::core
