// Chaos engine for the POC backbone: correlated fault injection,
// degraded operation, and auction-backed recovery.
//
// The paper's operational claim (sections 3.2-3.3) is that the POC
// stays viable under failure: the resilience-constrained auction
// pre-provisions backup capacity, and the external-ISP virtual links
// are the fallback of last resort. This module exercises that claim
// dynamically:
//
//  * shared_risk_groups  - shared-risk link groups (SRLGs) derived from
//    the topology's geometry: logical links between the same city pair
//    ride the same fibre conduit regardless of owning BP, and links
//    incident to the same router share its site. Correlated faults cut
//    whole groups at once.
//  * draw_fault_trace    - a deterministic, seeded fault schedule:
//    single link cuts, conduit cuts (SRLG-wide), router-site outages,
//    BP-wide withdrawals (a BP pulls its entire offer mid-epoch), and
//    partial capacity brownouts, each with a repair time in epochs.
//    External-ISP virtual links are never targeted: their contracts
//    (section 3.3) make them the reliability anchor of the design.
//  * run_chaos           - the degradation engine. Each epoch it applies
//    the active faults to the provisioned backbone, re-routes the
//    surviving demand over remaining plus virtual capacity (procuring
//    emergency virtual capacity at contract prices when the selected
//    set alone cannot carry the matrix), and emits an SLA record. When
//    delivery drops below a threshold it fires an *off-cycle*
//    re-auction restricted to the surviving offers right after the
//    epoch's measurement; its backbone serves from the next epoch, so
//    scenarios expose time-to-restore in epochs.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/flow_sim.hpp"
#include "core/provisioning.hpp"
#include "market/bid.hpp"
#include "sim/engine.hpp"
#include "topo/poc_topology.hpp"

namespace poc::sim {

/// A set of links that plausibly fail together.
struct SharedRiskGroup {
    std::string name;
    std::vector<net::LinkId> links;
};

/// SRLGs from a bare graph: one "conduit" group per unordered node pair
/// with at least two parallel links, and one "site" group per node with
/// at least two incident links. Deterministic (groups in id order).
std::vector<SharedRiskGroup> shared_risk_groups(const net::Graph& graph);

/// SRLGs from the POC topology's geometry: conduit groups keyed by the
/// *city* pair (parallel circuits of different BPs between the same two
/// metros share the physical right-of-way) and site groups keyed by the
/// city hosting the router.
std::vector<SharedRiskGroup> shared_risk_groups(const topo::PocTopology& topo);

enum class FaultKind {
    /// One link cut (fibre break on a single circuit).
    kLinkCut,
    /// A whole shared-risk group cut (backhoe through the conduit).
    kConduitCut,
    /// Every link incident to one router fails (site power/cooling).
    kRouterOutage,
    /// A BP withdraws its entire offer mid-epoch (commercial or
    /// network-wide operational failure).
    kBpOutage,
    /// Partial capacity degradation on a link or group (brownout).
    kBrownout,
    /// The POC control-plane process is killed mid-epoch (at the
    /// pipeline stage in Fault::crash_stage). Consumed by the durable
    /// epoch runtime (sim/runtime.hpp); run_chaos ignores it.
    kCrash,
    /// The acceptability oracle is slow or failing while the fault is
    /// active: every oracle query raises util::TransientError, so the
    /// runtime's retry/breaker layer absorbs it. run_chaos ignores it.
    kOracleDegraded,
    /// The process is killed mid-epoch AND, before the restart, a bit
    /// flips in the newest state snapshot file (media corruption
    /// surfacing during recovery). Consumed by run_with_recovery;
    /// run_chaos ignores it.
    kSnapshotCorrupt,
    /// The process is killed mid-epoch AND the journal's tail is torn
    /// (the device persisted only part of the last write). Consumed by
    /// run_with_recovery; run_chaos ignores it.
    kTornWrite,
    /// A journal-tailing read replica dies mid-apply (while applying a
    /// record of epoch `start_epoch`). Consumed by
    /// serve::run_follower_with_recovery; run_chaos and the leader-side
    /// supervisors ignore it.
    kFollowerCrash,
    /// A bit flips in the journal suffix a follower has yet to consume
    /// (replica-side media corruption: the leader's copy is fine).
    /// Consumed by serve::run_follower_with_recovery; run_chaos and
    /// the leader-side supervisors ignore it.
    kFollowerTailCorrupt,
};

const char* fault_kind_name(FaultKind kind);

/// One scheduled fault. Affected links are resolved to concrete ids at
/// injection time; `capacity_factor == 0` means hard-down, a value in
/// (0, 1) leaves that fraction of capacity in service (brownout).
struct Fault {
    FaultKind kind{};
    /// First epoch the fault is in effect.
    std::size_t start_epoch = 0;
    /// Epochs until repair; the fault is active on epochs
    /// [start_epoch, start_epoch + repair_epochs).
    std::size_t repair_epochs = 1;
    std::vector<net::LinkId> links{};
    double capacity_factor = 0.0;
    std::string description{};
    /// For kCrash only: the pipeline stage index (sim::Stage) the
    /// process dies in; ignored by every other kind.
    std::uint32_t crash_stage = 0;

    bool active_at(std::size_t epoch) const {
        return epoch >= start_epoch && epoch < start_epoch + repair_epochs;
    }

    friend bool operator==(const Fault&, const Fault&) = default;
};

struct FaultInjectorOptions {
    /// Scenario horizon; faults start on epochs [1, epochs) so epoch 0
    /// always establishes the healthy baseline.
    std::size_t epochs = 8;
    /// Global multiplier on every per-kind rate (the sweep knob).
    double intensity = 1.0;
    /// Expected events per epoch at intensity 1.
    double link_cut_rate = 0.6;
    double conduit_cut_rate = 0.2;
    double router_outage_rate = 0.1;
    double bp_outage_rate = 0.05;
    double brownout_rate = 0.4;
    /// Control-plane fault rates (kCrash / kOracleDegraded /
    /// kSnapshotCorrupt / kTornWrite), consumed by the durable epoch
    /// runtime. Default 0 so existing data-plane traces — and their
    /// RNG streams — are unchanged.
    double crash_rate = 0.0;
    double oracle_degraded_rate = 0.0;
    double snapshot_corrupt_rate = 0.0;
    double torn_write_rate = 0.0;
    /// Brownout surviving-capacity factor is drawn uniformly from
    /// [brownout_floor, brownout_ceil].
    double brownout_floor = 0.2;
    double brownout_ceil = 0.7;
    /// Mean repair time (epochs); each fault draws its own, >= 1.
    double mean_repair_epochs = 2.0;
    std::uint64_t seed = 2020;
};

/// Draw a deterministic correlated fault trace against the pool's
/// offered links. Virtual links are never targeted; faults whose
/// resolved link set is empty are dropped. The same trace can be
/// replayed against backbones provisioned under different constraints
/// (that is the ablation the paper's section 3.3 implies).
std::vector<Fault> draw_fault_trace(const market::OfferPool& pool,
                                    const std::vector<SharedRiskGroup>& srlgs,
                                    const FaultInjectorOptions& opt);

/// Per-epoch service-level record.
struct SlaRecord {
    std::size_t epoch = 0;
    double offered_gbps = 0.0;
    double delivered_gbps = 0.0;
    /// delivered / offered (1.0 when nothing is offered).
    double delivered_fraction = 1.0;
    /// Demand-weighted downtime: offered - delivered (gbps).
    double undelivered_gbps = 0.0;
    /// Path-stretch inflation of the degraded routing.
    double stretch = 1.0;
    /// Share of delivered gbps-km riding external-ISP virtual links
    /// (spikes while the POC is in fallback mode).
    double virtual_share = 0.0;
    std::size_t faults_active = 0;
    /// Selected (in-service) links hard-down / degraded this epoch.
    std::size_t links_down = 0;
    std::size_t links_degraded = 0;
    /// Contract cost of virtual links carrying traffic this epoch that
    /// the auction had *not* selected: capacity procured on demand at
    /// contract prices (section 3.3's fallback of last resort).
    util::Money emergency_virtual_cost;
    /// This epoch's monthly outlay: current backbone payments plus the
    /// emergency virtual procurement.
    util::Money outlay;
    /// An off-cycle re-auction was fired after this epoch's measurement.
    bool reauction_triggered = false;
    /// This epoch's backbone came from an off-cycle re-auction that had
    /// to relax the resilience constraint to plain load feasibility.
    bool degraded_mode = false;
};

struct ChaosOptions : EngineOptions {
    std::size_t epochs = 8;
    /// Initial provisioning request. Off-cycle re-auctions reuse it
    /// verbatim (minus withdrawn offers), so the auction engine knobs in
    /// `request.auction` — `exact`, `threads` — apply to every recovery
    /// auction too. Parallel and memoized re-auctions are bit-identical
    /// to serial ones (DESIGN.md §5), so chaos outcomes are unaffected.
    core::ProvisioningRequest request;
    /// Fire an off-cycle re-auction when delivered_fraction drops below
    /// this threshold (default: any loss of delivery triggers one).
    double reauction_threshold = 0.999;
    /// Called right after each epoch's SLA record is measured (before
    /// any off-cycle re-auction triggered by that epoch runs). Benches
    /// use it to capture per-epoch obs snapshots; a recovery re-auction
    /// triggered by epoch e therefore lands in epoch e+1's snapshot
    /// delta. Must not mutate chaos state.
    std::function<void(const SlaRecord&)> on_epoch;
    /// Data plane for the per-epoch flow measurement (DESIGN.md §9).
    /// kGreedy is the seed behavior; kPrimary routes every demand on
    /// its shortest path via the sharded engine. A *semantic* knob:
    /// SLA records differ between modes (it is part of the journal
    /// fingerprint, unlike the EngineOptions knobs).
    core::FlowRouting flow_routing = core::FlowRouting::kGreedy;
};

/// Full-run outcome: the SLA time series plus aggregates.
struct ChaosOutcome {
    /// False when even the initial (pristine) auction was infeasible;
    /// `sla` is empty in that case.
    bool provisioned = false;
    std::vector<SlaRecord> sla;
    std::size_t reauction_count = 0;
    /// Off-cycle re-auctions that found no feasible backbone (service
    /// stays degraded; retried after the next degraded epoch).
    std::size_t failed_reauctions = 0;
    double min_delivered_fraction = 1.0;
    double mean_delivered_fraction = 1.0;
    /// Sum over epochs of undelivered gbps (gbps-epochs of downtime).
    double total_undelivered_gbps = 0.0;
    /// Epochs from the first degraded epoch until delivery is fully
    /// restored; 0 when never degraded, `epochs` when not restored
    /// within the horizon.
    std::size_t epochs_to_restore = 0;
    /// Extra spend versus the pristine epoch-0 backbone: emergency
    /// virtual contracts plus outlay increases from re-auctions.
    util::Money total_recovery_cost;
    /// The epoch-0 (pristine) monthly outlay, for reference.
    util::Money baseline_outlay;
};

/// Run a fault trace against a backbone provisioned from `pool` under
/// `opt.request`. Deterministic. The pool's graph must outlive the
/// call. Faults listed against virtual links are ignored (contracted
/// fallback capacity is modeled as reliable); every fault must have
/// `repair_epochs >= 1` and `capacity_factor` in [0, 1).
ChaosOutcome run_chaos(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                       const std::vector<Fault>& trace, const ChaosOptions& opt);

}  // namespace poc::sim
