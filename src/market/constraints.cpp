#include "market/constraints.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>

#include "net/connectivity.hpp"
#include "net/mcf.hpp"
#include "obs/metrics.hpp"
#include "util/hash.hpp"

namespace poc::market {

namespace {
/// The node-cut screen rejects only when a node's need exceeds its
/// capacity by this fraction of (demand + capacity): far above the
/// floating-point slack greedy's sums can build up (DESIGN.md §6).
constexpr double kNodeCutMargin = 1e-6;
}  // namespace

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

    // The node-cut screen's table. The screen stays off wherever greedy
    // would throw rather than reject (a demand greedy places with equal
    // or unknown endpoints, a capacity that makes its weights NaN), and
    // on instances so large that its margin would no longer dominate
    // the rounding bound.
    if (opt_.fidelity != OracleFidelity::kFast) return;
    if (4 * tm_.size() + graph.link_count() >= 100'000'000) return;
    for (const net::LinkId l : graph.all_links()) {
        if (!std::isfinite(graph.link(l).capacity_gbps)) return;
    }
    std::vector<NodeDemand> by_node(graph.node_count());
    for (std::size_t n = 0; n < by_node.size(); ++n) by_node[n].node = net::NodeId{n};
    for (const net::Demand& d : tm_) {
        if (!net::greedy_routes(d)) continue;
        if (d.src == d.dst || d.src.index() >= by_node.size() ||
            d.dst.index() >= by_node.size()) {
            return;
        }
        const double need = net::greedy_fit_floor(d);
        for (const net::NodeId end : {d.src, d.dst}) {
            by_node[end.index()].need += need;
            by_node[end.index()].gbps += d.gbps;
        }
    }
    // A NaN demand makes its nodes' sums NaN, which drops them here.
    for (const NodeDemand& nd : by_node) {
        if (nd.need > 0.0) node_demands_.push_back(nd);
    }
}

bool AcceptabilityOracle::accepts_impl(const net::Subgraph& sg) const {
    POC_EXPECTS(&sg.graph() == graph_);
    return opt_.fidelity == OracleFidelity::kExact ? accepts_exact(sg) : accepts_fast(sg, nullptr);
}

bool AcceptabilityOracle::accepts_witnessed(const net::Subgraph& sg,
                                            OracleWitness& witness) const {
    POC_EXPECTS(&sg.graph() == graph_);
    return opt_.fidelity == OracleFidelity::kExact ? accepts_exact(sg)
                                                   : accepts_fast(sg, &witness);
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

bool AcceptabilityOracle::node_cut(const net::ActiveAdjacency& incidence,
                                   double utilization_cap) const {
    // Greedy places flow on simple paths, so each unit of a demand
    // crosses one link at each endpoint, and a link carries at most its
    // capacity times the cap. Ties, and anything within the margin, go
    // to greedy. The lists keep Graph::incident order, so each sum adds
    // the same capacities in the same order as a filtered scan would.
    const std::span<const double> capacity = graph_->link_soa().capacity_gbps;
    for (const NodeDemand& nd : node_demands_) {
        double cap = 0.0;
        for (const net::LinkId l : incidence.incident(nd.node)) cap += capacity[l.index()];
        const double avail = utilization_cap * cap;
        if (nd.need - avail > kNodeCutMargin * (nd.gbps + avail)) return true;
    }
    return false;
}

bool AcceptabilityOracle::screen_and_route(const net::Subgraph& sg,
                                           const net::GreedyRoutingOptions& gopt) const {
    net::ActiveAdjacency& incidence = gopt.workspace->incidence;
    incidence.assign(sg);
    if (node_cut(incidence, gopt.utilization_cap)) {
        POC_OBS_INC("market.oracle.nodecut_rejects");
        return false;
    }
    if (!net::greedy_path_routing(sg, tm_, gopt).has_value()) {
        POC_OBS_INC("market.oracle.greedy_rejects");
        return false;
    }
    return true;
}

bool AcceptabilityOracle::plan_run(const net::Subgraph& sg, OracleWitness* witness,
                                   std::size_t run, bool resumable,
                                   net::GreedyRoutingOptions& gopt) const {
    gopt.log = nullptr;
    gopt.resume = nullptr;
    gopt.resume_demands = 0;
    if (witness == nullptr) return false;
    OracleWitness::Run& r = witness->runs_[run];
    gopt.log = &r.next;
    if (!resumable) return false;
    const std::size_t intact = r.armed.intact_demands(sg);
    if (intact == r.armed.demands.size()) return true;
    gopt.resume = &r.armed;
    gopt.resume_demands = intact;
    return false;
}

bool AcceptabilityOracle::accepts_fast(const net::Subgraph& sg, OracleWitness* witness) const {
    // Each evaluation bumps exactly one verdict counter: the screen that
    // rejected it, certified_accepts (every greedy run was the armed
    // one), or greedy_accepts. A certified run replaces only a greedy
    // run; every other screen still runs on `sg`. A query that routes
    // builds `sg`'s incidence once, and the node-cut screen and every
    // greedy run scan it.
    const bool armed = witness != nullptr && witness->armed_by_ == this;
    net::GreedyWorkspace local;
    net::GreedyRoutingOptions gopt;
    gopt.workspace = witness != nullptr ? &witness->greedy_ : &local;
    // The greedy runs that routed: their new logs replace the armed
    // ones on accept.
    std::array<bool, 2> routed{};
    net::CommodityExclusions primaries;
    switch (kind_) {
        case ConstraintKind::kLoad: {
            // Connectivity of every positive demand is necessary, but a
            // successful greedy routing already proves it for all
            // demands it had to place, so only the rest are screened,
            // and only after greedy succeeds.
            if (!plan_run(sg, witness, 0, armed, gopt)) {
                if (!screen_and_route(sg, gopt)) return false;
                routed[0] = true;
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
            gopt.utilization_cap = opt_.fast_failure_derate;
            if (!plan_run(sg, witness, 0, armed, gopt)) {
                if (!screen_and_route(sg, gopt)) return false;
                routed[0] = true;
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
            primaries = net::primary_paths(sg, tm_, opt_.path_cache);
            if (!plan_run(sg, witness, 0, armed, gopt)) {
                if (!screen_and_route(sg, gopt)) return false;
                routed[0] = true;
            }
            // The second run excludes the primaries, so the armed log
            // speaks for it only while they are unchanged.
            gopt.exclusions = &primaries;
            if (!plan_run(sg, witness, 1, armed && primaries == witness->primaries_, gopt)) {
                // It scans the incidence the first run built, if any.
                if (!routed[0]) gopt.workspace->incidence.assign(sg);
                if (!net::greedy_path_routing(sg, tm_, gopt).has_value()) {
                    POC_OBS_INC("market.oracle.greedy_rejects");
                    return false;
                }
                routed[1] = true;
            }
            break;
        }
    }
    if (!routed[0] && !routed[1]) {
        POC_OBS_INC("market.oracle.certified_accepts");
        return true;
    }
    POC_OBS_INC("market.oracle.greedy_accepts");
    if (witness != nullptr) {
        // Re-arm with the runs that routed; a certified run's armed log
        // already describes its run over `sg`. The sets the pass asks
        // about next are all subsets of `sg`.
        for (std::size_t run = 0; run < routed.size(); ++run) {
            if (routed[run]) std::swap(witness->runs_[run].armed, witness->runs_[run].next);
        }
        witness->primaries_ = std::move(primaries);
        witness->armed_by_ = this;
    }
    return true;
}

}  // namespace poc::market
