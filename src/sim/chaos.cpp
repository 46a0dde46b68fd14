#include "sim/chaos.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "obs/trace.hpp"
#include "topo/geo.hpp"
#include "util/rng.hpp"

namespace poc::sim {

namespace {

std::string node_name(const net::Graph& g, net::NodeId n) {
    const std::string& label = g.node_label(n);
    return label.empty() ? "n" + std::to_string(n.value()) : label;
}

std::string city_name(std::size_t city) {
    const auto& cities = topo::world_cities();
    return city < cities.size() ? cities[city].name : "c" + std::to_string(city);
}

}  // namespace

std::vector<SharedRiskGroup> shared_risk_groups(const net::Graph& graph) {
    std::map<std::pair<std::size_t, std::size_t>, std::vector<net::LinkId>> conduits;
    for (const net::LinkId l : graph.all_links()) {
        const net::Link& link = graph.link(l);
        const std::size_t lo = std::min(link.a.index(), link.b.index());
        const std::size_t hi = std::max(link.a.index(), link.b.index());
        conduits[{lo, hi}].push_back(l);
    }
    std::vector<SharedRiskGroup> out;
    for (auto& [key, links] : conduits) {
        if (links.size() < 2) continue;
        out.push_back({"conduit:" + node_name(graph, net::NodeId{key.first}) + "-" +
                           node_name(graph, net::NodeId{key.second}),
                       std::move(links)});
    }
    for (std::size_t n = 0; n < graph.node_count(); ++n) {
        const auto incident = graph.incident(net::NodeId{n});
        if (incident.size() < 2) continue;
        out.push_back({"site:" + node_name(graph, net::NodeId{n}),
                       std::vector<net::LinkId>(incident.begin(), incident.end())});
    }
    return out;
}

std::vector<SharedRiskGroup> shared_risk_groups(const topo::PocTopology& topo) {
    POC_EXPECTS(topo.router_city.size() == topo.graph.node_count());
    std::map<std::pair<std::size_t, std::size_t>, std::vector<net::LinkId>> conduits;
    std::map<std::size_t, std::vector<net::LinkId>> sites;
    for (const net::LinkId l : topo.graph.all_links()) {
        const net::Link& link = topo.graph.link(l);
        const std::size_t ca = topo.router_city[link.a.index()];
        const std::size_t cb = topo.router_city[link.b.index()];
        conduits[{std::min(ca, cb), std::max(ca, cb)}].push_back(l);
        sites[ca].push_back(l);
        if (cb != ca) sites[cb].push_back(l);
    }
    std::vector<SharedRiskGroup> out;
    for (auto& [key, links] : conduits) {
        if (links.size() < 2) continue;
        out.push_back({"conduit:" + city_name(key.first) + "-" + city_name(key.second),
                       std::move(links)});
    }
    for (auto& [city, links] : sites) {
        if (links.size() < 2) continue;
        out.push_back({"city:" + city_name(city), std::move(links)});
    }
    return out;
}

const char* fault_kind_name(FaultKind kind) {
    switch (kind) {
        case FaultKind::kLinkCut: return "link-cut";
        case FaultKind::kConduitCut: return "conduit-cut";
        case FaultKind::kRouterOutage: return "router-outage";
        case FaultKind::kBpOutage: return "bp-outage";
        case FaultKind::kBrownout: return "brownout";
        case FaultKind::kCrash: return "crash";
        case FaultKind::kOracleDegraded: return "oracle-degraded";
        case FaultKind::kSnapshotCorrupt: return "snapshot-corrupt";
        case FaultKind::kTornWrite: return "torn-write";
        case FaultKind::kFollowerCrash: return "follower-crash";
        case FaultKind::kFollowerTailCorrupt: return "follower-tail-corrupt";
    }
    return "?";
}

std::vector<Fault> draw_fault_trace(const market::OfferPool& pool,
                                    const std::vector<SharedRiskGroup>& srlgs,
                                    const FaultInjectorOptions& opt) {
    POC_EXPECTS(opt.epochs >= 1);
    POC_EXPECTS(opt.intensity >= 0.0);
    POC_EXPECTS(opt.brownout_floor > 0.0 && opt.brownout_floor <= opt.brownout_ceil);
    POC_EXPECTS(opt.brownout_ceil < 1.0);
    POC_EXPECTS(opt.mean_repair_epochs >= 1.0);

    util::Rng rng(opt.seed);
    const net::Graph& graph = pool.graph();

    // Real (auctioned) links only: the external-ISP virtual links are
    // contracted fallback capacity and modeled as reliable.
    std::vector<net::LinkId> targets;
    for (const net::LinkId l : pool.offered_links()) {
        if (!pool.is_virtual(l)) targets.push_back(l);
    }

    // SRLGs restricted to the real offered links; groups that shrink
    // below two links stop being "correlated" and are dropped.
    std::vector<SharedRiskGroup> groups;
    for (const SharedRiskGroup& g : srlgs) {
        SharedRiskGroup filtered{g.name, {}};
        for (const net::LinkId l : g.links) {
            if (pool.is_offered(l) && !pool.is_virtual(l)) filtered.links.push_back(l);
        }
        if (filtered.links.size() >= 2) groups.push_back(std::move(filtered));
    }

    auto draw_repair = [&]() {
        const double d = rng.exponential(1.0 / opt.mean_repair_epochs);
        return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(d)));
    };
    auto draw_count = [&](double rate) {
        const double expected = rate * opt.intensity;
        auto n = static_cast<std::size_t>(expected);
        if (rng.bernoulli(expected - static_cast<double>(n))) ++n;
        return n;
    };

    std::vector<Fault> trace;
    if (targets.empty()) return trace;

    // Epoch 0 always measures the healthy baseline.
    for (std::size_t epoch = 1; epoch < opt.epochs; ++epoch) {
        for (std::size_t i = draw_count(opt.link_cut_rate); i > 0; --i) {
            const net::LinkId l = targets[rng.uniform_int(targets.size())];
            trace.push_back({FaultKind::kLinkCut, epoch, draw_repair(), {l}, 0.0,
                             "cut link " + std::to_string(l.value())});
        }
        if (!groups.empty()) {
            for (std::size_t i = draw_count(opt.conduit_cut_rate); i > 0; --i) {
                const SharedRiskGroup& g = groups[rng.uniform_int(groups.size())];
                trace.push_back({FaultKind::kConduitCut, epoch, draw_repair(), g.links, 0.0,
                                 "cut " + g.name});
            }
        }
        for (std::size_t i = draw_count(opt.router_outage_rate); i > 0; --i) {
            const net::NodeId node{rng.uniform_int(graph.node_count())};
            std::vector<net::LinkId> links;
            for (const net::LinkId l : graph.incident(node)) {
                if (pool.is_offered(l) && !pool.is_virtual(l)) links.push_back(l);
            }
            if (links.empty()) continue;
            trace.push_back({FaultKind::kRouterOutage, epoch, draw_repair(), std::move(links),
                             0.0, "router " + node_name(graph, node) + " down"});
        }
        if (!pool.bids().empty()) {
            for (std::size_t i = draw_count(opt.bp_outage_rate); i > 0; --i) {
                const market::BpBid& bid = pool.bids()[rng.uniform_int(pool.bids().size())];
                if (bid.offered_links().empty()) continue;
                trace.push_back({FaultKind::kBpOutage, epoch, draw_repair(),
                                 bid.offered_links(), 0.0, "BP " + bid.name() + " withdraws"});
            }
        }
        for (std::size_t i = draw_count(opt.brownout_rate); i > 0; --i) {
            const double factor = rng.uniform(opt.brownout_floor, opt.brownout_ceil);
            std::vector<net::LinkId> links;
            std::string what;
            if (!groups.empty() && rng.bernoulli(0.4)) {
                const SharedRiskGroup& g = groups[rng.uniform_int(groups.size())];
                links = g.links;
                what = g.name;
            } else {
                const net::LinkId l = targets[rng.uniform_int(targets.size())];
                links = {l};
                what = "link " + std::to_string(l.value());
            }
            trace.push_back({FaultKind::kBrownout, epoch, draw_repair(), std::move(links),
                             factor, "brownout " + what});
        }
        // Control-plane faults, consumed by the durable epoch runtime
        // (sim/runtime.hpp). Guarded so a zero rate draws nothing from
        // the RNG and existing data-plane traces stay bit-identical.
        if (opt.crash_rate > 0.0) {
            for (std::size_t i = draw_count(opt.crash_rate); i > 0; --i) {
                const auto stage = static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{4}));
                trace.push_back({FaultKind::kCrash, epoch, 1, {}, 0.0,
                                 "process crash mid-epoch (stage " + std::to_string(stage) + ")",
                                 stage});
            }
        }
        if (opt.oracle_degraded_rate > 0.0) {
            for (std::size_t i = draw_count(opt.oracle_degraded_rate); i > 0; --i) {
                trace.push_back({FaultKind::kOracleDegraded, epoch, draw_repair(), {}, 0.0,
                                 "acceptability oracle degraded"});
            }
        }
        if (opt.snapshot_corrupt_rate > 0.0) {
            for (std::size_t i = draw_count(opt.snapshot_corrupt_rate); i > 0; --i) {
                const auto stage = static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{4}));
                trace.push_back({FaultKind::kSnapshotCorrupt, epoch, 1, {}, 0.0,
                                 "crash + snapshot bit flip (stage " + std::to_string(stage) + ")",
                                 stage});
            }
        }
        if (opt.torn_write_rate > 0.0) {
            for (std::size_t i = draw_count(opt.torn_write_rate); i > 0; --i) {
                const auto stage = static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{4}));
                trace.push_back({FaultKind::kTornWrite, epoch, 1, {}, 0.0,
                                 "crash + torn journal tail (stage " + std::to_string(stage) + ")",
                                 stage});
            }
        }
    }
    POC_OBS_COUNT("sim.chaos.faults_injected", trace.size());
    return trace;
}

namespace {

/// Copy of `g` with per-link capacities scaled by `factor` (entries in
/// (0, 1]); node/link ids are preserved by insertion order. Null when
/// nothing is browned out, for callers to use `g` itself.
std::unique_ptr<net::Graph> browned_out(const net::Graph& g, const std::vector<double>& factor) {
    if (std::none_of(factor.begin(), factor.end(), [](double f) { return f < 1.0; })) {
        return nullptr;
    }
    auto out = std::make_unique<net::Graph>();
    for (std::size_t n = 0; n < g.node_count(); ++n) {
        out->add_node(g.node_label(net::NodeId{n}));
    }
    for (std::size_t i = 0; i < g.link_count(); ++i) {
        const net::Link& l = g.link(net::LinkId{i});
        out->add_link(l.a, l.b, l.capacity_gbps * factor[i], l.length_km);
    }
    return out;
}

}  // namespace

ChaosOutcome run_chaos(const market::OfferPool& base_pool, const net::TrafficMatrix& tm,
                       const std::vector<Fault>& trace, const ChaosOptions& opt) {
    POC_EXPECTS(opt.epochs >= 1);
    POC_EXPECTS(opt.reauction_threshold >= 0.0 && opt.reauction_threshold <= 1.0);
    const net::Graph& g0 = base_pool.graph();
    const std::size_t n_links = g0.link_count();
    for (const Fault& f : trace) {
        POC_EXPECTS(f.repair_epochs >= 1);
        POC_EXPECTS(f.capacity_factor >= 0.0 && f.capacity_factor < 1.0);
        for (const net::LinkId l : f.links) POC_EXPECTS(l.index() < n_links);
    }
    // Re-auctions rebuild surviving bids; bundle overrides cannot be
    // carried over link-by-link (same restriction as market's
    // manipulation rebuilds).
    for (const market::BpBid& b : base_pool.bids()) POC_EXPECTS(!b.has_bundle_overrides());

    // One engine for the whole run: the initial auction, every
    // re-auction pivot, and every epoch's flow pass share its path
    // cache (safe across the brownout graph copies, since capacity
    // scaling keeps link ids and lengths, the cache-key contract), and
    // re-auctions whose surviving offer set is within the delta
    // threshold of the previous clearing reuse its memo.
    Engine engine(opt, opt.request, opt.flow_routing, base_pool);
    const market::ConstraintKind constraint = opt.request.constraint;

    ChaosOutcome out;
    auto initial = engine.clear(base_pool, tm, constraint);
    if (!initial) return out;  // provisioned stays false
    out.provisioned = true;
    out.baseline_outlay = initial->monthly_outlay();

    // Service state the epoch loop's re-auctions replace: the live
    // backbone, the brownout-degraded graph copy it was cleared over
    // (null: g0), its outlay, and whether it relaxed the constraint.
    core::ProvisionedBackbone live = std::move(*initial);
    std::unique_ptr<net::Graph> live_graph;
    util::Money live_outlay = out.baseline_outlay;
    bool live_relaxed = false;

    // Per-link fault state at an epoch: hard-down mask plus surviving-
    // capacity factor (brownouts compound by taking the worst factor).
    auto fault_state = [&](std::size_t epoch, std::vector<char>& down,
                           std::vector<double>& factor) {
        down.assign(n_links, 0);
        factor.assign(n_links, 1.0);
        std::size_t active = 0;
        for (const Fault& f : trace) {
            if (!f.active_at(epoch)) continue;
            // Control-plane faults affect the epoch runtime, not the
            // provisioned data plane this engine degrades.
            if (f.kind == FaultKind::kCrash || f.kind == FaultKind::kOracleDegraded ||
                f.kind == FaultKind::kSnapshotCorrupt || f.kind == FaultKind::kTornWrite) {
                continue;
            }
            ++active;
            for (const net::LinkId l : f.links) {
                // Contracted fallback is reliable.
                if (base_pool.virtual_links().contains(l)) continue;
                if (f.capacity_factor <= 0.0) {
                    down[l.index()] = 1;
                } else {
                    factor[l.index()] = std::min(factor[l.index()], f.capacity_factor);
                }
            }
        }
        return active;
    };

    // Off-cycle re-auction restricted to the surviving offers, run on
    // the brownout-degraded capacities. If the configured resilience
    // constraint has become infeasible, optionally fall back to plain
    // load feasibility instead of staying dark.
    auto reauction = [&](std::size_t epoch) {
        // Telemetry: recovery latency (wall clock of the whole
        // off-cycle re-auction, including pool rebuild) plus outcome
        // counters. Pure side channel — results are unchanged.
        POC_OBS_SPAN("sim.chaos.reauction");
        POC_OBS_TIMER_MS("sim.chaos.reauction_ms", 0.0, 2000.0, 50);
        std::vector<char> down;
        std::vector<double> factor;
        fault_state(epoch, down, factor);

        std::vector<market::BpBid> bids;
        bids.reserve(base_pool.bids().size());
        for (const market::BpBid& b : base_pool.bids()) {
            market::BpBid survivor(b.bp(), b.name());
            for (const net::LinkId l : b.offered_links()) {
                if (!down[l.index()]) survivor.offer(l, b.base_price(l));
            }
            for (const market::DiscountTier& t : b.discounts()) survivor.add_discount(t);
            bids.push_back(std::move(survivor));
        }

        // Clear over the base graph when nothing is browned out: equal
        // content gives equal oracle fingerprints, so the result is the
        // same as over a copy.
        std::unique_ptr<net::Graph> graph = browned_out(g0, factor);
        const market::OfferPool pool(std::move(bids), base_pool.virtual_links(),
                                     graph != nullptr ? *graph : g0);

        bool degraded_mode = false;
        auto backbone = engine.clear(pool, tm, constraint);
        if (!backbone && constraint != market::ConstraintKind::kLoad) {
            backbone = engine.clear(pool, tm, market::ConstraintKind::kLoad);
            degraded_mode = backbone.has_value();
        }
        if (!backbone) {
            ++out.failed_reauctions;
            POC_OBS_INC("sim.chaos.failed_reauctions");
            return;
        }
        ++out.reauction_count;
        POC_OBS_INC("sim.chaos.reauctions");
        if (degraded_mode) POC_OBS_INC("sim.chaos.relaxed_reauctions");
        live = std::move(*backbone);
        live_graph = std::move(graph);
        live_outlay = live.monthly_outlay();
        live_relaxed = degraded_mode;
        if (live_outlay > out.baseline_outlay) {
            out.total_recovery_cost += live_outlay - out.baseline_outlay;
        }
    };

    for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
        engine.advance_epoch();
        std::vector<char> down;
        std::vector<double> factor;
        SlaRecord rec;
        rec.epoch = epoch;
        rec.faults_active = fault_state(epoch, down, factor);
        rec.degraded_mode = live_relaxed;

        const std::unique_ptr<net::Graph> degraded = browned_out(g0, factor);
        const net::Graph& epoch_graph = degraded != nullptr ? *degraded : g0;

        // Operating set: the surviving selected links. The contracted
        // virtual links the auction did not select are the fallback of
        // last resort (section 3.3): they join only when the backbone
        // alone does not carry the whole matrix, and those the routing
        // then leans on are procured for the epoch at contract price.
        std::vector<net::LinkId> operating;
        std::vector<char> in_selected(n_links, 0);
        for (const net::LinkId l : live.selected.active_links()) {
            in_selected[l.index()] = 1;
            if (down[l.index()]) {
                ++rec.links_down;
                continue;
            }
            if (factor[l.index()] < 1.0) ++rec.links_degraded;
            operating.push_back(l);
        }
        std::vector<net::LinkId> fallback;
        for (const net::LinkId l : base_pool.virtual_links().links()) {
            if (!in_selected[l.index()]) fallback.push_back(l);
        }

        core::FlowReport flows = engine.flows(net::Subgraph(epoch_graph, operating), tm);
        if (!flows.fully_routed && !fallback.empty()) {
            operating.insert(operating.end(), fallback.begin(), fallback.end());
            flows = engine.flows(net::Subgraph(epoch_graph, operating), tm);
            for (const net::LinkId l : fallback) {
                if (flows.link_load_gbps[l.index()] > 1e-9) {
                    rec.emergency_virtual_cost += base_pool.virtual_links().price(l);
                }
            }
        }

        rec.offered_gbps = flows.total_offered_gbps;
        rec.delivered_gbps = std::min(flows.total_routed_gbps, flows.total_offered_gbps);
        rec.delivered_fraction =
            rec.offered_gbps > 0.0 ? rec.delivered_gbps / rec.offered_gbps : 1.0;
        rec.undelivered_gbps = std::max(0.0, rec.offered_gbps - rec.delivered_gbps);
        rec.stretch = flows.stretch;
        rec.virtual_share = flows.virtual_share;

        rec.outlay = live_outlay + rec.emergency_virtual_cost;
        out.total_recovery_cost += rec.emergency_virtual_cost;

        // Recovery trigger: an off-cycle re-auction after this
        // epoch's measurement, whose backbone serves from the next
        // epoch (time-to-restore is therefore measured in epochs).
        rec.reauction_triggered =
            rec.delivered_fraction < opt.reauction_threshold && epoch + 1 < opt.epochs;

        // Per-epoch SLA accounting through the metrics layer (the
        // same quantities as the SlaRecord, so snapshot deltas can
        // stand in for hand-rolled counters downstream).
        POC_OBS_INC("sim.chaos.epochs");
        POC_OBS_COUNT("sim.chaos.faults_active", rec.faults_active);
        POC_OBS_COUNT("sim.chaos.links_down", rec.links_down);
        POC_OBS_COUNT("sim.chaos.links_degraded", rec.links_degraded);
        if (rec.delivered_fraction < opt.reauction_threshold) {
            POC_OBS_INC("sim.chaos.sla_violations");
        }
        if (rec.delivered_fraction < 1.0 - 1e-6) POC_OBS_INC("sim.chaos.degraded_epochs");
        if (rec.degraded_mode) POC_OBS_INC("sim.chaos.relaxed_mode_epochs");
        POC_OBS_COUNT("sim.chaos.emergency_virtual_microusd",
                      rec.emergency_virtual_cost.micros());
        POC_OBS_HISTOGRAM("sim.chaos.delivered_fraction", 0.0, 1.0 + 1e-9, 20,
                          rec.delivered_fraction);
        POC_OBS_HISTOGRAM("sim.chaos.undelivered_gbps", 0.0, 1000.0, 50,
                          rec.undelivered_gbps);

        out.sla.push_back(rec);
        if (opt.on_epoch) opt.on_epoch(out.sla.back());
        if (rec.reauction_triggered) reauction(epoch);
    }
    POC_ENSURES(out.sla.size() == opt.epochs);

    double sum = 0.0;
    for (const SlaRecord& rec : out.sla) {
        sum += rec.delivered_fraction;
        out.min_delivered_fraction = std::min(out.min_delivered_fraction,
                                              rec.delivered_fraction);
        out.total_undelivered_gbps += rec.undelivered_gbps;
    }
    out.mean_delivered_fraction = sum / static_cast<double>(out.sla.size());

    constexpr double kFullEps = 1e-6;
    std::size_t first_degraded = out.sla.size();
    for (std::size_t i = 0; i < out.sla.size(); ++i) {
        if (out.sla[i].delivered_fraction < 1.0 - kFullEps) {
            first_degraded = i;
            break;
        }
    }
    if (first_degraded == out.sla.size()) {
        out.epochs_to_restore = 0;
    } else {
        out.epochs_to_restore = opt.epochs;
        for (std::size_t i = first_degraded + 1; i < out.sla.size(); ++i) {
            if (out.sla[i].delivered_fraction >= 1.0 - kFullEps) {
                out.epochs_to_restore = i - first_degraded;
                break;
            }
        }
    }
    return out;
}

}  // namespace poc::sim
