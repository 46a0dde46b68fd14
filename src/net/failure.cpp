#include "net/failure.hpp"

#include <algorithm>

#include "net/connectivity.hpp"
#include "net/sssp.hpp"

namespace poc::net {

namespace {

/// satisfies_load with greedy running in `ws`, its incidence rebuilt
/// for `sg`: the same verdict, and no allocation once `ws` is warm.
bool load_fits(const Subgraph& sg, const TrafficMatrix& tm, double fptas_eps,
               GreedyWorkspace* ws) {
    if (!all_pairs_connected(sg, tm)) return false;
    return is_routable(sg, tm, fptas_eps, nullptr, ws);
}

}  // namespace

bool satisfies_load(const Subgraph& sg, const TrafficMatrix& tm, double fptas_eps) {
    return load_fits(sg, tm, fptas_eps, nullptr);
}

bool satisfies_single_failure(const Subgraph& sg, const TrafficMatrix& tm,
                              const ResilienceOptions& opt) {
    // One greedy workspace for the nominal run and every recheck.
    GreedyWorkspace ws;
    if (!load_fits(sg, tm, opt.fptas_eps, &ws)) return false;

    // Find a nominal feasible routing; links that carry no flow in it
    // can fail without consequence (the same routing remains valid), so
    // only loaded links need exhaustive rechecking.
    ws.incidence.assign(sg);
    GreedyRoutingOptions gopt;
    gopt.workspace = &ws;
    auto nominal = greedy_path_routing(sg, tm, gopt);
    std::vector<double> load;
    if (nominal) {
        load = nominal->link_load(sg.graph());
    } else {
        const auto cf = max_concurrent_flow(sg, tm, opt.fptas_eps);
        if (cf.lambda < 1.0) return false;
        load = cf.routing.link_load(sg.graph());
    }

    Subgraph work = sg;
    for (const LinkId lid : sg.active_links()) {
        const double cap = sg.graph().link(lid).capacity_gbps;
        if (load[lid.index()] <= opt.recheck_load_threshold * cap ||
            load[lid.index()] <= 1e-9) {
            continue;  // unloaded in the nominal routing: failure is free
        }
        work.set_active(lid, false);
        const bool ok = load_fits(work, tm, opt.fptas_eps, &ws);
        work.set_active(lid, true);
        if (!ok) return false;
    }
    return true;
}

std::vector<std::vector<LinkId>> primary_paths(const Subgraph& sg, const TrafficMatrix& tm,
                                               PathCache* cache) {
    SsspBatchOptions opt;
    opt.metric = SsspMetric::kLength;
    opt.cache = cache;
    return batched_primary_paths(sg, tm, opt);
}

bool satisfies_per_pair_failure(const Subgraph& sg, const TrafficMatrix& tm,
                                const ResilienceOptions& opt) {
    GreedyWorkspace ws;
    if (!load_fits(sg, tm, opt.fptas_eps, &ws)) return false;
    const CommodityExclusions primaries = primary_paths(sg, tm, opt.path_cache);
    // Every demand must still be routable (simultaneously) while its own
    // primary path's links are excluded for it.
    return is_routable(sg, tm, opt.fptas_eps, &primaries, &ws);
}

}  // namespace poc::net
