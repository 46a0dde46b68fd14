// Full bandwidth-market scenario: a generated continental topology,
// auction-provisioned POC backbone, and four leasing epochs with the
// dynamics of paper section 3.3 - demand growth, a cloud-provider BP
// recalling leased capacity for its own use, a link failure, and a
// price shift. Prints per-epoch market telemetry.
//
//   ./build/examples/bandwidth_market
//
// Set POC_OBS_SNAPSHOT=<path-prefix> to also dump the run's obs
// snapshot: <prefix>.json (counters, gauges, histograms, spans) plus
// the metrics table on stdout. See DESIGN.md §5a.
#include <array>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "market/pricing.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "sim/scenario.hpp"
#include "topo/traffic.hpp"
#include "util/table.hpp"

using namespace poc;

int main() {
    // Moderate scale so the example runs in a few seconds.
    topo::BpGeneratorOptions bopt;
    bopt.bp_count = 10;
    bopt.min_cities = 8;
    bopt.max_cities = 20;
    bopt.seed = 2024;
    auto bps = topo::generate_bp_networks(bopt);

    topo::PocTopologyOptions popt;
    popt.min_colocated_bps = 4;
    auto topology = topo::build_poc_topology(bps, popt);
    std::cout << "POC topology: " << topology.router_city.size() << " routers, "
              << topology.graph.link_count() << " offered logical links from "
              << topology.bp_count << " BPs\n";

    market::VirtualLinkOptions vopt;
    vopt.attach_count = 4;
    const market::OfferPool pool = market::make_offer_pool(topology, {}, vopt);

    topo::GravityOptions gopt;
    gopt.total_gbps = 1200.0;
    const auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), 40);
    std::cout << "Traffic matrix: " << tm.size() << " demands, "
              << net::total_demand(tm) << " Gbps total\n\n";

    // Scenario: epoch 1 demand +30%; epoch 2 the largest BP (a cloud
    // provider that overbought) recalls 60% of its offered capacity;
    // epoch 3 a selected link fails and a rival raises prices 40%.
    std::vector<sim::ScenarioEvent> events(4);
    events[0].kind = sim::ScenarioEvent::Kind::kDemandGrowth;
    events[0].epoch = 1;
    events[0].factor = 1.3;
    events[1].kind = sim::ScenarioEvent::Kind::kBpRecall;
    events[1].epoch = 2;
    events[1].bp = 0;
    events[1].fraction = 0.6;
    events[2].kind = sim::ScenarioEvent::Kind::kLinkFailure;
    events[2].epoch = 3;
    events[2].count = 2;
    events[3].kind = sim::ScenarioEvent::Kind::kPriceShift;
    events[3].epoch = 3;
    events[3].bp = 1;
    events[3].factor = 1.4;

    sim::ScenarioOptions sopt;
    sopt.epochs = 4;
    market::OracleOptions oopt;
    oopt.fidelity = market::OracleFidelity::kFast;
    sopt.request.oracle = oopt;
    sopt.request.constraint = market::ConstraintKind::kLoad;

#if POC_OBS_ENABLED
    // Per-epoch data-plane telemetry: the scenario shares one
    // net::PathCache across its auctions and flow sims
    // (ScenarioOptions::use_path_cache), so the SSSP/path-cache counter
    // deltas show how much routing work each epoch reused vs recomputed.
    // Lifetime totals land in the obs snapshot below.
    auto net_counters = [] {
        obs::MetricsRegistry& reg = obs::registry();
        return std::array<std::uint64_t, 4>{
            reg.counter("net.sssp.runs").value(),
            reg.counter("net.path_cache.hits").value(),
            reg.counter("net.path_cache.misses").value(),
            reg.counter("net.path_cache.evictions").value(),
        };
    };
    auto last = net_counters();
    sopt.on_epoch = [&](const sim::EpochOutcome& o) {
        const auto now = net_counters();
        std::cout << "epoch " << o.epoch << " data plane: sssp_runs=" << now[0] - last[0]
                  << "  path_cache hits=" << now[1] - last[1]
                  << " misses=" << now[2] - last[2] << " evictions=" << now[3] - last[3]
                  << "\n";
        last = now;
    };
#endif

    const auto outcomes = sim::run_scenario(pool, tm, events, sopt);
    std::cout << "\n";

    util::Table table({"epoch", "events", "offered", "selected", "demand Gbps",
                       "outlay", "mean PoB", "max util", "virt share"});
    for (const sim::EpochOutcome& o : outcomes) {
        std::string ev;
        for (const auto& e : o.applied_events) {
            if (!ev.empty()) ev += "; ";
            ev += e;
        }
        table.add_row({util::cell(o.epoch), ev.empty() ? std::string("-") : ev,
                       util::cell(o.offered_links),
                       util::cell(o.selected_links), util::cell(o.total_demand_gbps, 0),
                       o.provisioned ? o.outlay.str() : "INFEASIBLE",
                       util::cell(o.mean_pob, 3), util::cell_pct(o.flows.max_utilization),
                       util::cell_pct(o.flows.virtual_share)});
    }
    std::cout << table.render();

    std::cout << "\nReading: demand growth (epoch 1) pulls more links into the backbone;\n"
                 "the recall (epoch 2) shrinks the offer pool and raises the clearing\n"
                 "outlay; failures and the rival price hike (epoch 3) raise it further,\n"
                 "but the external-ISP virtual links cap how far payments can climb\n"
                 "(section 3.3's bound on manipulation and scarcity).\n";

#if POC_OBS_ENABLED
    // Observability snapshot of everything the run just did: auction
    // pivots and cache hits, flow admissions, ledger settlement.
    const obs::Snapshot snap = obs::Snapshot::capture(/*drain_spans=*/true);
    std::cout << "\n=== Observability snapshot (src/obs) ===\n"
              << snap.metrics_table().render();
    if (const char* prefix = std::getenv("POC_OBS_SNAPSHOT"); prefix != nullptr) {
        const std::string path = std::string(prefix) + ".json";
        std::ofstream out(path);
        out << snap.json();
        std::cout << "wrote obs snapshot to " << path << "\n";
    }
#endif
    return 0;
}
