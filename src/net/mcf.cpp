#include "net/mcf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <utility>

#include "obs/metrics.hpp"

namespace poc::net {

namespace {
constexpr double kEps = 1e-12;
/// Candidate paths per commodity in greedy routing.
constexpr std::size_t kGreedyPaths = 4;

/// How much of a demand may stay unplaced when it counts as fitted.
double fit_tolerance(double gbps) { return 1e-9 * std::max(1.0, gbps); }

/// Greedy routing's completion test: true while too much of a demand
/// is left unplaced for it to count as fitted.
bool exceeds_fit_tolerance(double remaining, double gbps) {
    return remaining > fit_tolerance(gbps);
}
}  // namespace

bool greedy_routes(const Demand& d) { return !(d.gbps <= kEps); }

double greedy_fit_floor(const Demand& d) { return d.gbps - fit_tolerance(d.gbps); }

bool greedy_success_connects(const Demand& d) {
    return d.gbps > kEps && exceeds_fit_tolerance(d.gbps, d.gbps);
}

std::vector<double> CommodityRouting::link_load(const Graph& g) const {
    std::vector<double> load(g.link_count(), 0.0);
    for (const auto& demand_routes : routes) {
        for (const auto& [path, rate] : demand_routes) {
            for (const LinkId l : path) load[l.index()] += rate;
        }
    }
    return load;
}

void GreedyLog::clear() {
    footprint.clear();
    path_links.clear();
    placements.clear();
    demands.clear();
}

std::size_t GreedyLog::intact_demands(const Subgraph& sg) const {
    const auto lost = std::find_if(footprint.begin(), footprint.end(),
                                   [&](LinkId l) { return !sg.is_active(l); });
    if (lost == footprint.end()) return demands.size();
    // The demands whose segments end at or before the lost link.
    const auto at = static_cast<std::size_t>(lost - footprint.begin());
    return static_cast<std::size_t>(
        std::partition_point(demands.begin(), demands.end(),
                             [&](const DemandEnd& e) { return e.footprint <= at; }) -
        demands.begin());
}

std::optional<CommodityRouting> greedy_path_routing(const Subgraph& sg, const TrafficMatrix& tm,
                                                    const GreedyRoutingOptions& opt) {
    POC_EXPECTS(opt.utilization_cap > 0.0 && opt.utilization_cap <= 1.0);
    POC_EXPECTS(opt.exclusions == nullptr || opt.exclusions->size() == tm.size());
    const Graph& g = sg.graph();

    // Place the biggest demands first: they are the hardest to fit.
    std::vector<std::size_t> order(tm.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return tm[a].gbps > tm[b].gbps; });

    GreedyWorkspace local;
    GreedyWorkspace& ws = opt.workspace != nullptr ? *opt.workspace : local;
    if (opt.workspace == nullptr) local.incidence.assign(sg);
    POC_EXPECTS(ws.incidence.graph() == &g);

    // Congestion-aware metric, one entry per link: length scaled up as
    // residual capacity shrinks, so routes prefer uncongested links.
    // Rewritten only for links whose residual changed, so each entry is
    // the expression's value on the current residuals. Only active
    // links' entries are written and read.
    std::vector<double>& residual = ws.residual;
    LinkWeightArray& weight = ws.weight;
    residual.resize(g.link_count());
    weight.resize(g.link_count());
    const auto refresh_weight = [&](LinkId lid) {
        const Link& link = g.link(lid);
        const double cap = link.capacity_gbps * opt.utilization_cap;
        const double used = cap - residual[lid.index()];
        const double frac = cap > 0.0 ? used / cap : 1.0;
        const double w = (link.length_km + 1.0) * (1.0 + 4.0 * frac * frac);
        POC_EXPECTS(w >= 0.0);
        weight[lid.index()] = w;
    };

    // The "usable" view — active links with residual capacity — is
    // maintained incrementally across demands instead of being rebuilt
    // from scratch per demand: residual only ever decreases, so the
    // exhausted set grows monotonically and a link deactivated here
    // stays deactivated. This is exactly the set the per-demand rebuild
    // would produce, just without the O(L) sweep. Per-demand exclusions
    // are toggled off around the search and restored via an undo list
    // (an excluded link's residual cannot change while it is excluded,
    // so restoring to active is always correct).
    if (ws.usable) {
        *ws.usable = sg;
    } else {
        ws.usable.emplace(sg);
    }
    Subgraph& usable = *ws.usable;
    // The incidence lists every active link (and perhaps more).
    for (const LinkId lid : ws.incidence.active_links()) {
        if (!sg.is_active(lid)) continue;
        residual[lid.index()] = g.link(lid).capacity_gbps * opt.utilization_cap;
        refresh_weight(lid);
        if (residual[lid.index()] <= kEps) usable.set_active(lid, false);
    }
    // Takes `gbps` off every link of a placed path.
    const auto consume = [&](std::span<const LinkId> path, double gbps) {
        for (const LinkId l : path) {
            residual[l.index()] -= gbps;
            refresh_weight(l);
            if (residual[l.index()] <= kEps) usable.set_active(l, false);
        }
    };

    CommodityRouting routing;
    routing.routes.resize(tm.size());
    GreedyLog* const log = opt.log;
    std::vector<LinkId>* const footprint = log != nullptr ? &log->footprint : nullptr;
    if (log != nullptr) log->clear();

    // Replay the resumed prefix: its placements, subtracted in the same
    // order, leave residuals, weights and usable bit for bit as the
    // searches that made them did (DESIGN.md §6).
    std::size_t next = 0;
    if (opt.resume != nullptr && opt.resume_demands > 0) {
        const GreedyLog& from = *opt.resume;
        POC_EXPECTS(&from != log);
        POC_EXPECTS(opt.resume_demands <= from.demands.size());
        const GreedyLog::DemandEnd prefix = from.demands[opt.resume_demands - 1];
        std::size_t p = 0;
        std::size_t links_begin = 0;
        for (; next < opt.resume_demands; ++next) {
            for (; p < from.demands[next].placements; ++p) {
                const GreedyLog::Placement& placed = from.placements[p];
                const std::span<const LinkId> path(from.path_links.data() + links_begin,
                                                   placed.links_end - links_begin);
                consume(path, placed.gbps);
                routing.routes[order[next]].emplace_back(
                    std::vector<LinkId>(path.begin(), path.end()), placed.gbps);
                links_begin = placed.links_end;
            }
        }
        const auto prefix_end = [](const auto& v, std::size_t n) {
            return v.begin() + static_cast<std::ptrdiff_t>(n);
        };
        if (footprint != nullptr) {
            footprint->insert(footprint->end(), from.footprint.begin(),
                              prefix_end(from.footprint, prefix.footprint));
        }
        if (log != nullptr) {
            log->path_links.assign(from.path_links.begin(),
                                   prefix_end(from.path_links, links_begin));
            log->placements.assign(from.placements.begin(), prefix_end(from.placements, p));
            log->demands.assign(from.demands.begin(), prefix_end(from.demands, next));
        }
        POC_OBS_COUNT("net.greedy.replayed_demands", next);
    }

    const auto demand_done = [&] {
        if (log != nullptr) log->demands.push_back({log->footprint.size(), log->placements.size()});
    };
    for (; next < order.size(); ++next) {
        const std::size_t di = order[next];
        const Demand& d = tm[di];
        if (!greedy_routes(d)) {
            demand_done();
            continue;
        }
        POC_EXPECTS(d.src != d.dst);

        std::vector<LinkId>& excluded_undo = ws.excluded_undo;
        excluded_undo.clear();
        if (opt.exclusions != nullptr) {
            for (const LinkId lid : (*opt.exclusions)[di]) {
                if (usable.is_active(lid)) {
                    usable.set_active(lid, false);
                    excluded_undo.push_back(lid);
                }
            }
        }

        // Lazy Yen: Yen's first path is the shortest path. When it can
        // carry the whole demand, the placement loop stops right after
        // it. Otherwise Yen starts from a copy of the usable view, and
        // each later candidate is found only when the loop reaches it
        // with demand still unplaced, under the weights the demand
        // started with: the placements' weight changes are swapped out
        // around each step. So every candidate is the one Yen would have
        // found had it run first.
        double remaining = d.gbps;
        bool fallback = false;
        const auto place = [&](const WeightedPath& wp) {
            double bottleneck = remaining;
            for (const LinkId l : wp.links) {
                bottleneck = std::min(bottleneck, residual[l.index()]);
            }
            if (bottleneck <= kEps) return;
            if (fallback) {
                for (const LinkId l : wp.links) ws.weight_undo.emplace_back(l, weight[l.index()]);
            }
            consume(wp.links, bottleneck);
            routing.routes[di].emplace_back(wp.links, bottleneck);
            if (log != nullptr) {
                log->path_links.insert(log->path_links.end(), wp.links.begin(), wp.links.end());
                log->placements.push_back({log->path_links.size(), bottleneck});
            }
            remaining -= bottleneck;
        };
        WeightedPath& first = ws.first;
        if (shortest_path_into(usable, ws.incidence, d.src, d.dst, weight, ws.sssp, first)) {
            if (footprint != nullptr) {
                footprint->insert(footprint->end(), first.links.begin(), first.links.end());
            }
            double first_bottleneck = d.gbps;
            for (const LinkId l : first.links) {
                first_bottleneck = std::min(first_bottleneck, residual[l.index()]);
            }
            fallback = !(first_bottleneck >= d.gbps);
            if (fallback) {
                POC_OBS_INC("net.greedy.yen_fallbacks");
                ws.yen.reset(usable, ws.incidence, d.src, d.dst, first);
                ws.weight_undo.clear();
            }
            place(first);
            for (std::size_t i = 1; fallback && !(remaining <= kEps) && i < kGreedyPaths; ++i) {
                auto& undo = ws.weight_undo;
                for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
                    std::swap(weight[it->first.index()], it->second);
                }
                POC_OBS_INC("net.greedy.yen_steps");
                const bool found = ws.yen.advance(weight, ws.sssp, footprint);
                for (auto& [l, w] : undo) std::swap(weight[l.index()], w);
                if (!found) break;
                place(ws.yen.path(i));
            }
        }

        for (const LinkId lid : excluded_undo) usable.set_active(lid, true);
        if (exceeds_fit_tolerance(remaining, d.gbps)) return std::nullopt;
        demand_done();
    }
    return routing;
}

ConcurrentFlowResult max_concurrent_flow(const Subgraph& sg, const TrafficMatrix& tm, double eps,
                                         const CommodityExclusions* exclusions) {
    POC_EXPECTS(eps > 0.0 && eps <= 0.5);
    POC_EXPECTS(exclusions == nullptr || exclusions->size() == tm.size());
    const Graph& g = sg.graph();
    const std::size_t m = std::max<std::size_t>(sg.active_count(), 2);

    ConcurrentFlowResult out;
    out.routing.routes.resize(tm.size());
    if (tm.empty()) {
        out.lambda = std::numeric_limits<double>::infinity();
        return out;
    }

    // Fleischer's length-function initialization.
    const double delta = std::pow(static_cast<double>(m) / (1.0 - eps), -1.0 / eps) /
                         1.0;  // delta = (m/(1-eps))^(-1/eps)
    std::vector<double> length(g.link_count(), 0.0);
    const auto active = sg.active_links();
    for (const LinkId lid : active) {
        length[lid.index()] = delta / g.link(lid).capacity_gbps;
    }
    auto dual = [&]() {
        double s = 0.0;
        for (const LinkId lid : active) s += length[lid.index()] * g.link(lid).capacity_gbps;
        return s;
    };

    const LinkWeight len_weight = [&](LinkId lid) { return length[lid.index()]; };

    std::vector<double> routed(tm.size(), 0.0);  // unscaled flow per commodity

    // Per-commodity views honoring exclusions (shared view otherwise).
    std::vector<Subgraph> views;
    if (exclusions != nullptr) {
        views.reserve(tm.size());
        for (std::size_t j = 0; j < tm.size(); ++j) {
            Subgraph v = sg;
            for (const LinkId lid : (*exclusions)[j]) v.set_active(lid, false);
            views.push_back(std::move(v));
        }
    }
    auto view_of = [&](std::size_t j) -> const Subgraph& {
        return exclusions != nullptr ? views[j] : sg;
    };

    // Quick reachability/zero-demand screening. Reachability under the
    // unit metric only depends on the source and the view, so with no
    // exclusions (all views alias sg) one SSSP per distinct source
    // answers every demand from it; the workspace keeps the tree of
    // the most recent source, and demands arrive grouped only by
    // chance, so we re-run when the source (or view) changes.
    SsspWorkspace ws;
    NodeId screened_source{};
    for (std::size_t j = 0; j < tm.size(); ++j) {
        const Demand& d = tm[j];
        POC_EXPECTS(d.gbps >= 0.0);
        if (d.gbps <= kEps) continue;
        if (exclusions != nullptr || d.src != screened_source) {
            dijkstra_metric_into(view_of(j), d.src, SsspMetric::kUnit, ws);
            screened_source = d.src;
        }
        if (!ws.reachable(d.dst)) {
            out.lambda = 0.0;  // some demand cannot be routed at all
            return out;
        }
    }

    double current_dual = dual();
    while (current_dual < 1.0) {
        for (std::size_t j = 0; j < tm.size(); ++j) {
            const Demand& d = tm[j];
            if (d.gbps <= kEps) continue;
            double to_route = d.gbps;
            while (to_route > kEps && current_dual < 1.0) {
                auto sp = shortest_path(view_of(j), d.src, d.dst, len_weight, ws);
                POC_ASSERT(sp.has_value());
                double bottleneck = to_route;
                for (const LinkId l : sp->links) {
                    bottleneck = std::min(bottleneck, g.link(l).capacity_gbps);
                }
                POC_ASSERT(bottleneck > 0.0);
                for (const LinkId l : sp->links) {
                    const double cap = g.link(l).capacity_gbps;
                    const double old_len = length[l.index()];
                    length[l.index()] = old_len * (1.0 + eps * bottleneck / cap);
                    // Incremental dual update: d(sum cap*len) = cap * old_len
                    // * (eps*b/cap) = eps * b * old_len.
                    current_dual += eps * bottleneck * old_len;
                }
                routed[j] += bottleneck;
                to_route -= bottleneck;
                out.routing.routes[j].emplace_back(std::move(sp->links), bottleneck);
            }
        }
    }

    // Scale the accumulated flow down to feasibility: each link carries
    // at most log_{1+eps}((1+eps)/delta) times its capacity.
    const double scale = std::log((1.0 + eps) / delta) / std::log(1.0 + eps);
    POC_ASSERT(scale > 0.0);
    double min_fraction = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < tm.size(); ++j) {
        if (tm[j].gbps <= kEps) continue;
        min_fraction = std::min(min_fraction, routed[j] / tm[j].gbps);
    }
    if (min_fraction == std::numeric_limits<double>::infinity()) min_fraction = 0.0;
    out.lambda = min_fraction / scale;

    for (auto& demand_routes : out.routing.routes) {
        for (auto& [path, rate] : demand_routes) rate /= scale;
    }
    return out;
}

bool is_routable(const Subgraph& sg, const TrafficMatrix& tm, double fptas_eps,
                 const CommodityExclusions* exclusions, GreedyWorkspace* workspace) {
    if (tm.empty()) return true;
    GreedyRoutingOptions greedy_opt;
    greedy_opt.exclusions = exclusions;
    if (workspace != nullptr) {
        workspace->incidence.assign(sg);
        greedy_opt.workspace = workspace;
    }
    if (greedy_path_routing(sg, tm, greedy_opt)) return true;
    return max_concurrent_flow(sg, tm, fptas_eps, exclusions).lambda >= 1.0;
}

}  // namespace poc::net
