// Multi-epoch market scenarios over the POC: each epoch the POC
// re-runs its bandwidth auction against the current offers and demand,
// provisions, and measures. Events between epochs model the dynamics
// the paper discusses in section 3.3: a large CSP-turned-BP recalling
// leased capacity for its own use, link failures, demand growth, and
// per-BP price shifts.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/flow_sim.hpp"
#include "core/provisioning.hpp"
#include "market/manipulation.hpp"
#include "market/pricing.hpp"
#include "sim/engine.hpp"

namespace poc::sim {

/// A scripted event applied at the start of its epoch.
struct ScenarioEvent {
    enum class Kind {
        /// Multiply every demand by `factor`.
        kDemandGrowth,
        /// BP `bp` withdraws `fraction` of its offered links (largest
        /// capacity first): the overbuy-then-recall dynamic.
        kBpRecall,
        /// `count` random selected links fail (withdrawn from offers).
        kLinkFailure,
        /// BP `bp` scales all its prices by `factor`.
        kPriceShift,
    };

    Kind kind{};
    std::size_t epoch = 0;  // applied before this epoch's auction
    std::uint32_t bp = 0;
    double factor = 1.0;
    double fraction = 0.0;
    std::size_t count = 0;
};

/// Per-epoch measurements.
struct EpochOutcome {
    std::size_t epoch = 0;
    bool provisioned = false;
    util::Money outlay;
    std::size_t selected_links = 0;
    std::size_t offered_links = 0;
    double total_demand_gbps = 0.0;
    /// Mean payment-over-bid across BPs that won links.
    double mean_pob = 0.0;
    core::FlowReport flows;
    std::vector<std::string> applied_events;
};

struct ScenarioOptions : EngineOptions {
    std::size_t epochs = 4;
    core::ProvisioningRequest request;
    std::uint64_t seed = 99;
    /// Data plane for the per-epoch flow measurement (DESIGN.md §9):
    /// kGreedy = seed behavior, kPrimary = sharded shortest-path
    /// routing. Semantic — epoch outcomes differ between modes.
    core::FlowRouting flow_routing = core::FlowRouting::kGreedy;
    /// Called after each epoch's outcome is measured (examples use it
    /// to dump per-epoch observability snapshots). Must not mutate
    /// scenario state.
    std::function<void(const EpochOutcome&)> on_epoch;
};

/// Run a scripted scenario. The pool's graph must outlive the call.
/// Returns one outcome per epoch (epochs after an unprovisionable one
/// still run; `provisioned` marks failures). Events are validated up
/// front: an `epoch` at or beyond `opt.epochs`, a `fraction` outside
/// [0, 1], a non-positive `factor`, or a `bp` with no bid in the pool
/// throws util::ContractViolation.
std::vector<EpochOutcome> run_scenario(const market::OfferPool& initial_pool,
                                       const net::TrafficMatrix& initial_tm,
                                       const std::vector<ScenarioEvent>& events,
                                       const ScenarioOptions& opt = {});

}  // namespace poc::sim
