#include "market/constraints.hpp"

#include "net/connectivity.hpp"
#include "net/mcf.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace poc::market {

const char* constraint_name(ConstraintKind kind) {
    switch (kind) {
        case ConstraintKind::kLoad:
            return "#1 load";
        case ConstraintKind::kSingleFailure:
            return "#2 single-failure";
        case ConstraintKind::kPerPairFailure:
            return "#3 per-pair-failure";
    }
    return "?";
}

AcceptabilityOracle::AcceptabilityOracle(const net::Graph& graph, net::TrafficMatrix tm,
                                         ConstraintKind kind, OracleOptions opt)
    : graph_(&graph), tm_(std::move(tm)), kind_(kind), opt_(opt) {
    POC_EXPECTS(opt_.fast_failure_derate > 0.0 && opt_.fast_failure_derate <= 1.0);
    // The demands all_pairs_connected checks (gbps not <= 0) that a
    // successful greedy routing does not prove connected.
    for (const net::Demand& d : tm_) {
        if (!(d.gbps <= 0.0) && !net::greedy_success_connects(d)) unproven_by_greedy_.push_back(d);
    }
}

bool AcceptabilityOracle::accepts_impl(const net::Subgraph& sg) const {
    POC_EXPECTS(&sg.graph() == graph_);
    return opt_.fidelity == OracleFidelity::kExact ? accepts_exact(sg) : accepts_fast(sg);
}

std::optional<std::uint64_t> AcceptabilityOracle::verdict_fingerprint() const {
    // Content digest, not address: chaos rebuilds equal-content graph
    // copies per re-auction, and those must fingerprint equal.
    util::Fnv64 h;
    h.add(static_cast<std::uint64_t>(kind_));
    h.add(static_cast<std::uint64_t>(opt_.fidelity));
    h.add_f64(opt_.fast_failure_derate);
    h.add_f64(opt_.fptas_eps);
    h.add(graph_->node_count());
    h.add(graph_->link_count());
    for (std::size_t i = 0; i < graph_->link_count(); ++i) {
        const net::Link& l = graph_->link(net::LinkId{i});
        h.add(l.a.value());
        h.add(l.b.value());
        h.add_f64(l.capacity_gbps);
        h.add_f64(l.length_km);
    }
    h.add(tm_.size());
    for (const net::Demand& d : tm_) {
        h.add(d.src.value());
        h.add(d.dst.value());
        h.add_f64(d.gbps);
    }
    return h.value();
}

bool AcceptabilityOracle::accepts_exact(const net::Subgraph& sg) const {
    net::ResilienceOptions ropt;
    ropt.fptas_eps = opt_.fptas_eps;
    ropt.path_cache = opt_.path_cache;
    switch (kind_) {
        case ConstraintKind::kLoad:
            return net::satisfies_load(sg, tm_, opt_.fptas_eps);
        case ConstraintKind::kSingleFailure:
            return net::satisfies_single_failure(sg, tm_, ropt);
        case ConstraintKind::kPerPairFailure:
            return net::satisfies_per_pair_failure(sg, tm_, ropt);
    }
    return false;
}

bool AcceptabilityOracle::accepts_fast(const net::Subgraph& sg) const {
    // Each evaluation bumps exactly one verdict counter: the screen that
    // rejected it, or greedy_accepts.
    switch (kind_) {
        case ConstraintKind::kLoad: {
            // Connectivity of every positive demand is necessary, but a
            // successful greedy routing already proves it for all
            // demands it had to place, so only the rest are screened,
            // and only after greedy succeeds.
            if (!net::greedy_path_routing(sg, tm_).has_value()) {
                POC_OBS_INC("market.oracle.greedy_rejects");
                return false;
            }
            if (!unproven_by_greedy_.empty() &&
                !net::all_pairs_connected(sg, unproven_by_greedy_)) {
                POC_OBS_INC("market.oracle.connectivity_rejects");
                return false;
            }
            break;
        }
        case ConstraintKind::kSingleFailure: {
            // (a) Demand endpoints must be 2-edge-connected: connected
            //     even with every bridge removed. This implies plain
            //     connectivity, which therefore needs no screen of its own.
            net::Subgraph no_bridges = sg;
            for (const net::LinkId b : net::find_bridges(sg)) no_bridges.set_active(b, false);
            if (!net::all_pairs_connected(no_bridges, tm_)) {
                POC_OBS_INC("market.oracle.bridge_rejects");
                return false;
            }
            // (b) The matrix must fit with protection headroom: every
            //     link derated to `fast_failure_derate` of capacity.
            net::GreedyRoutingOptions gopt;
            gopt.utilization_cap = opt_.fast_failure_derate;
            if (!net::greedy_path_routing(sg, tm_, gopt).has_value()) {
                POC_OBS_INC("market.oracle.greedy_rejects");
                return false;
            }
            break;
        }
        case ConstraintKind::kPerPairFailure: {
            // primary_paths runs before greedy and needs the demands
            // connected, so this constraint keeps the screen up front.
            if (!net::all_pairs_connected(sg, tm_)) {
                POC_OBS_INC("market.oracle.connectivity_rejects");
                return false;
            }
            const auto primaries = net::primary_paths(sg, tm_, opt_.path_cache);
            if (!net::greedy_path_routing(sg, tm_).has_value()) {
                POC_OBS_INC("market.oracle.greedy_rejects");
                return false;
            }
            net::GreedyRoutingOptions gopt;
            gopt.exclusions = &primaries;
            if (!net::greedy_path_routing(sg, tm_, gopt).has_value()) {
                POC_OBS_INC("market.oracle.greedy_rejects");
                return false;
            }
            break;
        }
    }
    POC_OBS_INC("market.oracle.greedy_accepts");
    return true;
}

}  // namespace poc::market
