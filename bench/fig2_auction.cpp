// Figure 2 reproduction: payment-over-bid margins (PoB) of the five
// largest BPs under the paper's three provisioning constraints.
//
// Paper methodology (section 3.3): TopologyZoo networks merged into 20
// BPs; POC routers where >= 4 BPs colocate; 4674 logical links; BP
// shares ~2%..12%; synthetic traffic matrix; VCG auction under
//   #1  the links carry the offered load,
//   #2  ... after any single path (link) failure,
//   #3  ... with a path failed between each pair simultaneously.
//
// Ours: the synthetic continental generator (DESIGN.md substitution for
// TopologyZoo), same construction rules, gravity traffic matrix. The
// absolute margins differ from the paper's; the reproduced *shape* is
// (a) PoB varies strongly across BPs and (b) margins grow as the
// constraint tightens.
//
// Environment knobs: POC_FIG2_QUICK=1 shrinks the instance (under 1 s;
// CI diffs its table against bench/golden/fig2_auction_quick.txt);
// POC_FIG2_SEED overrides the topology seed.
#include <chrono>
#include <cstdlib>
#include <iostream>

#include "market/pricing.hpp"
#include "market/vcg.hpp"
#include "net/failure.hpp"
#include "topo/traffic.hpp"
#include "util/csv_export.hpp"
#include "util/table.hpp"

using namespace poc;

namespace {

struct Config {
    bool quick = false;
    std::uint64_t seed = 42;
};

Config read_config() {
    Config cfg;
    if (const char* q = std::getenv("POC_FIG2_QUICK"); q != nullptr && q[0] == '1') {
        cfg.quick = true;
    }
    if (const char* s = std::getenv("POC_FIG2_SEED"); s != nullptr) {
        cfg.seed = static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
    }
    return cfg;
}

/// Validate the final selection under the exact (exhaustive) semantics.
bool validate_exact(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                    market::ConstraintKind kind, const std::vector<net::LinkId>& links) {
    const market::AcceptabilityOracle exact(pool.graph(), tm, kind);
    return exact.accepts(net::Subgraph(pool.graph(), links));
}

}  // namespace

int main() {
    const Config cfg = read_config();

    topo::BpGeneratorOptions bopt;
    bopt.seed = cfg.seed;
    topo::PocTopologyOptions popt;
    topo::GravityOptions gopt;
    std::size_t top_n = 60;
    if (cfg.quick) {
        bopt.bp_count = 8;
        bopt.min_cities = 8;
        bopt.max_cities = 18;
        popt.min_colocated_bps = 3;
        gopt.total_gbps = 800.0;
        top_n = 30;
    } else {
        gopt.total_gbps = 5000.0;
    }

    auto bps = topo::generate_bp_networks(bopt);
    auto topology = topo::build_poc_topology(bps, popt);
    const market::OfferPool pool = market::make_offer_pool(topology);
    const auto tm = topo::aggregate_top_n(topo::gravity_traffic(topology, gopt), top_n);

    std::cout << "=== Figure 2: bandwidth-auction payment-over-bid margins ===\n";
    std::cout << "POC network: " << topology.router_city.size() << " routers, "
              << topology.graph.link_count() << " offered logical links (paper: 4674), "
              << topology.bp_count << " BPs\n";
    std::cout << "BP link shares: ";
    for (std::size_t b = 0; b < topology.bp_count; ++b) {
        std::cout << util::cell_pct(topology.share_of(static_cast<std::uint32_t>(b)), 1) << " ";
    }
    std::cout << "(paper: ~2%..12%)\n";
    std::cout << "Traffic matrix: " << tm.size() << " aggregated demands, "
              << net::total_demand(tm) << " Gbps\n\n";

    // The five largest BPs by offered-link share, as in the figure.
    std::vector<std::uint32_t> order(topology.bp_count);
    for (std::uint32_t b = 0; b < topology.bp_count; ++b) order[b] = b;
    std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
        return topology.share_of(a) > topology.share_of(b);
    });
    order.resize(std::min<std::size_t>(5, order.size()));

    struct Row {
        market::ConstraintKind kind;
        std::vector<double> pob;          // aligned with `order`
        util::Money outlay;
        std::size_t selected = 0;
        bool exact_valid = false;
        double seconds = 0.0;
    };
    std::vector<Row> rows;

    for (const auto kind :
         {market::ConstraintKind::kLoad, market::ConstraintKind::kSingleFailure,
          market::ConstraintKind::kPerPairFailure}) {
        Row row;
        row.kind = kind;
        const auto t0 = std::chrono::steady_clock::now();

        // The kFast surrogate is conservative-by-derate; if the final
        // selection fails the exhaustive check, tighten the protection
        // headroom and re-run (each step shrinks usable capacity, so
        // the search keeps more backup links).
        std::optional<market::AuctionResult> result;
        for (const double derate : {0.65, 0.5, 0.4}) {
            market::OracleOptions oopt;
            oopt.fidelity = market::OracleFidelity::kFast;
            oopt.fast_failure_derate = derate;
            const market::AcceptabilityOracle oracle(pool.graph(), tm, kind, oopt);
            result = market::run_auction(pool, oracle);
            if (!result) break;
            row.exact_valid = validate_exact(pool, tm, kind, result->selection.links);
            if (row.exact_valid || kind != market::ConstraintKind::kSingleFailure) break;
        }
        row.seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        if (!result) {
            std::cout << "constraint " << market::constraint_name(kind)
                      << ": INFEASIBLE with the offered links\n";
            rows.push_back(std::move(row));
            continue;
        }
        for (const std::uint32_t b : order) {
            row.pob.push_back(result->outcome(market::BpId{b}).pob);
        }
        row.outlay = result->total_outlay;
        row.selected = result->selection.links.size();
        rows.push_back(std::move(row));
    }

    util::Table table({"constraint", "BP1 PoB", "BP2 PoB", "BP3 PoB", "BP4 PoB", "BP5 PoB",
                       "selected", "outlay", "exact-valid", "time(s)"});
    for (const Row& row : rows) {
        std::vector<std::string> cells{market::constraint_name(row.kind)};
        for (std::size_t i = 0; i < 5; ++i) {
            cells.push_back(i < row.pob.size() ? util::cell(row.pob[i], 3) : "-");
        }
        cells.push_back(util::cell(row.selected));
        cells.push_back(row.outlay.str());
        cells.push_back(row.exact_valid ? "yes" : "NO");
        cells.push_back(util::cell(row.seconds, 1));
        table.add_row(std::move(cells));
    }
    std::cout << table.render();
    util::maybe_export_csv(table, "fig2_pob");

    // Paper's headline observation: "the high variation in the PoB".
    double min_pob = 1e18;
    double max_pob = -1e18;
    for (const Row& row : rows) {
        for (const double p : row.pob) {
            min_pob = std::min(min_pob, p);
            max_pob = std::max(max_pob, p);
        }
    }
    std::cout << "\nPoB spread across the five largest BPs and three constraints: ["
              << util::cell(min_pob, 3) << ", " << util::cell(max_pob, 3)
              << "] (paper reports high variation, ~0.00..0.19)\n";
    std::cout << "(BP1..BP5 columns are the five largest BPs by offered-link share,\n"
                 " in decreasing size order, as in the paper's figure.)\n";
    return 0;
}
