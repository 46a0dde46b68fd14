// The engine decision shared by every epoch driver (sim/runtime,
// sim/chaos, sim/scenario): which caches an epoch sequence carries and
// how they are wired into the acceptability oracle, the auction and the
// flow pass (DESIGN.md §7).
//
// Every knob in EngineOptions is an *engine* knob: outcomes are
// bit-identical whatever its value, so none of them is part of the
// journal meta fingerprint (sim/replay.hpp) and a journaled run may
// resume with any of them flipped. The one data-plane choice that does
// change results, core::FlowRouting, stays a semantic option of each
// driver and is passed to flow_options().
#pragma once

#include <cstddef>

#include "core/flow_sim.hpp"
#include "core/provisioning.hpp"
#include "market/delta_reclear.hpp"
#include "net/path_cache.hpp"

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
    /// Shard tasks / threads for the core::FlowRouting::kPrimary data
    /// plane (net/shard.hpp); ignored under kGreedy.
    std::size_t flow_shards = 1;
    std::size_t flow_threads = 1;
};

/// Owner of the caches one epoch sequence carries. Not copyable or
/// movable: wired requests and flow options point into it, so it must
/// outlive every auction and flow pass that uses them.
class Engine {
public:
    explicit Engine(const EngineOptions& opt);

    Engine(const Engine&) = delete;
    Engine& operator=(const Engine&) = delete;

    /// Start a new epoch: age out cached trees no recent mask used.
    void advance_epoch() { path_cache_.advance_epoch(); }

    /// `request` with the caches wired in: the oracle's path cache
    /// (when enabled) and the delta memo (when enabled and the caller
    /// left `auction.delta` null).
    core::ProvisioningRequest wire(core::ProvisioningRequest request);

    /// Flow-pass options for `routing`, sharing the path cache.
    core::FlowSimOptions flow_options(core::FlowRouting routing);

private:
    EngineOptions opt_;
    net::PathCache path_cache_;
    market::DeltaReclearState delta_;
};

}  // namespace poc::sim
