// The two stages of every epoch (paper section 3.3), shared by every
// epoch driver (sim/runtime, sim/chaos, sim/scenario): clear the
// auction, then carry the traffic over the leased backbone. The engine
// owns what an epoch sequence carries between them (DESIGN.md §7.3);
// each driver keeps its own loop.
//
// Every knob in EngineOptions is an *engine* knob: outcomes are
// bit-identical whatever its value, so none of them is part of the
// journal meta fingerprint (sim/replay.hpp) and a journaled run may
// resume with any of them flipped. The one data-plane choice that does
// change results, core::FlowRouting, is a semantic option of each
// driver, passed to the engine.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/flow_sim.hpp"
#include "core/provisioning.hpp"
#include "market/delta_reclear.hpp"
#include "net/path_cache.hpp"
#include "util/contracts.hpp"

namespace poc::sim {

/// Engine knobs, defined once and inherited by RuntimeOptions,
/// ChaosOptions and ScenarioOptions.
struct EngineOptions {
    /// Share one epoch-invalidated net::PathCache across the sequence:
    /// the oracle's primary-path SSSPs (auctions, pivots, re-auctions)
    /// and the flow pass reuse trees across the near-identical masks
    /// they evaluate. Off = recompute every tree.
    bool use_path_cache = true;
    /// Dynamic-repair budget for that cache (net/sssp_repair.hpp): a
    /// missed mask within this many link flips of a cached tree is
    /// served by patching the tree instead of a fresh Dijkstra. 0 = off.
    std::size_t path_cache_repair_budget = 8;
    /// Carry one market::DeltaReclearState across the sequence's
    /// auctions (market/delta_reclear.hpp): a re-clear whose offered
    /// pool differs from the previous one by at most
    /// `request.auction.delta_max_links` links under an unchanged
    /// context reuses its verdict/solve memo. It is the auction's only
    /// memo: off = every auction solves unmemoized.
    bool use_delta_reclear = true;
};

/// One epoch sequence's clearing and flow stages. Not copyable or
/// movable: the wired request points into it.
class Engine {
public:
    /// `request` with the engine's caches wired in: the path cache when
    /// enabled, and the delta memo when enabled and the request has
    /// none. The flow pass reports `pool`'s virtual links as virtual
    /// share.
    Engine(const EngineOptions& opt, const core::ProvisioningRequest& request,
           core::FlowRouting routing, const market::OfferPool& pool);

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Start a new epoch: age out cached trees no recent mask used.
    void advance_epoch() { path_cache_.advance_epoch(); }

    /// The request with the engine's caches wired in.
    const core::ProvisioningRequest& request() const { return request_; }

    /// core::provision through the wired request, under `constraint`.
    /// `pool` must hold the constructor's pool's virtual-link contract
    /// (the same links in the same order), so the flow pass's virtual
    /// share stays right.
    std::optional<core::ProvisionedBackbone> clear(const market::OfferPool& pool,
                                                   const net::TrafficMatrix& tm,
                                                   market::ConstraintKind constraint) {
        POC_EXPECTS(pool.virtual_links().links() == virtual_links_);
        core::ProvisioningRequest request = request_;
        request.constraint = constraint;
        return core::provision(pool, tm, request);
    }

    /// core::simulate_flows with the run's routing, path cache and flow
    /// scratch. `backbone` may be over any graph with the pool's link
    /// ids and lengths (chaos scales capacities in a copy). A call whose
    /// inputs equal the previous pass's, bit for bit (DESIGN.md §7.3),
    /// returns that pass's report without routing and counts
    /// `sim.engine.flow_reuses`.
    core::FlowReport flows(const net::Subgraph& backbone, const net::TrafficMatrix& tm);

private:
    net::PathCache path_cache_;
    market::DeltaReclearState delta_;
    core::ProvisioningRequest request_;
    std::vector<net::LinkId> virtual_links_;
    std::vector<bool> is_virtual_;
    core::FlowWorkspace flow_ws_;
    core::FlowSimOptions flow_opt_;
    /// The last flow pass's inputs as words (the graph's link count, the
    /// active count, each active link's id, endpoints, capacity and
    /// length bits, each demand's endpoints and gbps bits), and its
    /// report. `flow_probe_`
    /// is the scratch a call builds its own key in.
    std::vector<std::uint64_t> flow_key_;
    std::vector<std::uint64_t> flow_probe_;
    std::optional<core::FlowReport> last_flows_;
};

}  // namespace poc::sim
