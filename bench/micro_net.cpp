// Perf baseline for the data-plane fast path and the sharded
// shared-nothing flow engine (DESIGN.md §6, §9). Two sections:
//
//  1. Fast path: sweeps graph size × demand count × routing mode
//     (serial per-demand SSSP / batched per-source fast path / fast
//     path + tree cache), times primary-path resolution for the whole
//     traffic matrix, and verifies every mode produces bit-identical
//     paths.
//
//  2. Shard scaling: a synthetic continental instance (10^4 routers,
//     10^5 demands in the full run) through sharded_primary_flow at
//     shards {1, 2, 4, 8}, verifying the results are bit-identical
//     for every shard count before reporting any timing.
//
// The fastpath headline win is algorithmic, not parallel: a matrix
// with D demands but S << D distinct sources needs S SSSP runs, not D,
// and the reusable workspace drops the per-run tree allocation. Those
// two effects hold on one core. Multi-shard timings need
// std::thread::hardware_concurrency() > 1; on a 1-thread machine they
// are SKIPPED with a note instead of reporting a dishonest x1 — the
// bit-identity checks still run (they are schedule-independent by
// construction, so one core proves the same property).
//
// Usage: micro_net [--smoke] [OUT.json]
//   --smoke: small instances, 1 rep — the CI tier-1 smoke mode.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/path_cache.hpp"
#include "net/shard.hpp"
#include "net/sssp.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"

using namespace poc;

namespace {

struct Instance {
    std::string label;
    std::size_t nodes = 0;
    std::size_t demand_count = 0;
    net::Graph g;
    net::TrafficMatrix tm;
    std::size_t distinct_sources = 0;
};

/// Random connected graph with n nodes and ~3n links, plus `demands`
/// random positive demands. Sources draw uniformly from all n nodes,
/// so distinct_sources saturates near min(n, demands) — the realistic
/// shape where grouping pays (demands >> sources).
Instance make_instance(std::size_t n, std::size_t demands, std::uint64_t seed) {
    util::Rng rng(seed);
    Instance inst;
    inst.nodes = n;
    inst.demand_count = demands;
    inst.g.add_nodes(n);
    for (std::size_t i = 0; i + 1 < n; ++i) {
        inst.g.add_link(net::NodeId{i}, net::NodeId{i + 1}, rng.uniform(50.0, 400.0),
                        rng.uniform(100.0, 2000.0));
    }
    for (std::size_t e = 0; e < 2 * n; ++e) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto b = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (a == b) b = (b + 1) % n;
        inst.g.add_link(net::NodeId{a}, net::NodeId{b}, rng.uniform(50.0, 400.0),
                        rng.uniform(100.0, 2000.0));
    }
    for (std::size_t d = 0; d < demands; ++d) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto t = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (s == t) t = (t + 1) % n;
        inst.tm.push_back({net::NodeId{s}, net::NodeId{t}, rng.uniform(0.5, 5.0)});
    }
    inst.distinct_sources = net::distinct_sources(inst.tm).size();
    std::ostringstream label;
    label << "n" << n << "-d" << demands;
    inst.label = label.str();
    return inst;
}

/// The serial reference: one full Dijkstra per demand through the
/// tree-allocating convenience API — exactly what the routing call
/// sites did before the fast path existed.
std::vector<std::vector<net::LinkId>> serial_primary_paths(const net::Subgraph& sg,
                                                           const net::TrafficMatrix& tm) {
    const net::LinkWeight w = net::weight_by_length(sg.graph());
    std::vector<std::vector<net::LinkId>> out(tm.size());
    for (std::size_t j = 0; j < tm.size(); ++j) {
        if (tm[j].gbps <= 0.0) continue;
        const net::ShortestPathTree tree = net::dijkstra(sg, tm[j].src, w);
        if (tree.reachable(tm[j].dst)) out[j] = tree.path_to(tm[j].dst);
    }
    return out;
}

struct Mode {
    const char* name;
    bool cache;
};

struct Row {
    std::string instance;
    std::size_t nodes = 0;
    std::size_t links = 0;
    std::size_t demands = 0;
    std::size_t distinct_sources = 0;
    std::string mode;
    bool cache = false;
    double ms = 0.0;
    double speedup_vs_serial = 1.0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
};

/// One shard-scaling row: sharded_primary_flow at a fixed shard count.
struct ShardRow {
    std::string instance;
    std::size_t nodes = 0;
    std::size_t links = 0;
    std::size_t demands = 0;
    std::size_t distinct_sources = 0;
    std::size_t shards = 1;
    std::size_t threads = 1;
    double ms = 0.0;
    double speedup_vs_shards1 = 1.0;
    bool identical_to_shards1 = false;
    bool skipped = false;
    std::string note;
};

bool results_identical(const net::ShardFlowResult& a, const net::ShardFlowResult& b) {
    return a.routed_gbps == b.routed_gbps && a.weighted_km == b.weighted_km &&
           a.total_gbps_km == b.total_gbps_km && a.virtual_gbps_km == b.virtual_gbps_km &&
           a.admitted == b.admitted && a.unrouted == b.unrouted &&
           a.link_load_gbps == b.link_load_gbps;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    std::string out_path = "BENCH_net.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            out_path = argv[i];
        }
    }
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    const Mode modes[] = {
        {"serial", false},
        {"fastpath", false},
        {"fastpath+cache", true},
    };
    const int reps = smoke ? 1 : 3;

    std::vector<Instance> instances;
    instances.push_back(make_instance(10, 100, 8101));
    instances.push_back(make_instance(50, 500, 8102));
    if (!smoke) {
        instances.push_back(make_instance(200, 2000, 8103));
        instances.push_back(make_instance(500, 10000, 8104));
    }

    std::vector<Row> rows;
    bool all_identical = true;

    for (const Instance& inst : instances) {
        const net::Subgraph sg(inst.g);
        std::vector<std::vector<net::LinkId>> reference;
        double serial_ms = 0.0;
        for (const Mode& mode : modes) {
            // One cache per (instance, mode) row, kept warm across
            // reps: the best-of-reps time for the cached row measures
            // the steady state a scenario epoch loop sees, where the
            // previous epoch already populated the trees.
            net::PathCache cache;
            net::SsspBatchOptions bopt;
            bopt.metric = net::SsspMetric::kLength;
            bopt.cache = mode.cache ? &cache : nullptr;
            const bool is_serial = std::strcmp(mode.name, "serial") == 0;

            double best_ms = 0.0;
            std::vector<std::vector<net::LinkId>> paths;
            for (int rep = 0; rep < reps; ++rep) {
                const auto t0 = std::chrono::steady_clock::now();
                paths = is_serial ? serial_primary_paths(sg, inst.tm)
                                  : net::batched_primary_paths(sg, inst.tm, bopt);
                const auto t1 = std::chrono::steady_clock::now();
                const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
                if (rep == 0 || ms < best_ms) best_ms = ms;
            }
            if (is_serial) {
                reference = paths;
                serial_ms = best_ms;
            } else if (paths != reference) {
                std::cerr << inst.label << "/" << mode.name << ": paths differ from serial\n";
                all_identical = false;
            }

            Row row;
            row.instance = inst.label;
            row.nodes = inst.nodes;
            row.links = inst.g.link_count();
            row.demands = inst.demand_count;
            row.distinct_sources = inst.distinct_sources;
            row.mode = mode.name;
            row.cache = mode.cache;
            row.ms = best_ms;
            row.speedup_vs_serial = best_ms > 0.0 ? serial_ms / best_ms : 1.0;
            row.cache_hits = cache.stats().hits;
            row.cache_misses = cache.stats().misses;
            rows.push_back(row);

            std::cout << inst.label << "  links=" << row.links << "  sources="
                      << row.distinct_sources << "  " << mode.name << "  " << best_ms
                      << " ms  x" << row.speedup_vs_serial;
            if (mode.cache) {
                std::cout << "  hits=" << row.cache_hits << "  misses=" << row.cache_misses;
            }
            std::cout << "\n";
        }
    }

    // --- Section 2: shard scaling on a synthetic continental instance
    // (DESIGN.md §9). Bit-identity across shard counts is asserted
    // before any timing is reported. ---
    topo::SyntheticTopologyOptions topt;
    topt.nodes = smoke ? 1000 : 10000;
    topt.regions = smoke ? 16 : 64;
    topt.seed = 8105;
    const topo::SyntheticTopology topo_inst = topo::build_synthetic_topology(topt);
    topo::ContinentalTrafficOptions copt;
    copt.demands = smoke ? 2000 : 100000;
    copt.max_sources = smoke ? 64 : 512;
    copt.seed = 8106;
    const net::TrafficMatrix shard_tm = topo::continental_traffic(topo_inst, copt);
    const net::TrafficMatrixSoA shard_soa(shard_tm);
    const net::Subgraph shard_sg(topo_inst.graph);
    const std::string shard_label =
        "continental-n" + std::to_string(topt.nodes) + "-d" + std::to_string(copt.demands);

    std::vector<ShardRow> shard_rows;
    bool shards_identical = true;
    {
        net::ShardWorkspace ws;
        net::ShardFlowResult shard_reference;
        double shards1_ms = 0.0;
        for (const std::size_t shards :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
            ShardRow row;
            row.instance = shard_label;
            row.nodes = topt.nodes;
            row.links = topo_inst.graph.link_count();
            row.demands = copt.demands;
            row.distinct_sources = shard_soa.sources().size();
            row.shards = shards;
            row.threads = std::min(shards, hw);

            net::ShardOptions sopt;
            sopt.shards = shards;
            sopt.threads = row.threads;
            net::ShardFlowResult result;
            // Identity first (schedule-independent, so one run at any
            // thread count proves it), timing second.
            net::sharded_primary_flow(shard_sg, shard_soa, sopt, ws, result);
            if (shards == 1) {
                shard_reference = result;
                row.identical_to_shards1 = true;
            } else {
                row.identical_to_shards1 = results_identical(shard_reference, result);
                if (!row.identical_to_shards1) {
                    std::cerr << shard_label << "/shards=" << shards
                              << ": result differs from shards=1\n";
                    shards_identical = false;
                }
            }

            if (shards > 1 && hw == 1) {
                row.skipped = true;
                row.note = "timing skipped: 1 hardware thread; identity still verified";
                std::cout << shard_label << "  shards=" << shards << "  SKIPPED ("
                          << row.note << ")  identical="
                          << (row.identical_to_shards1 ? "true" : "false") << "\n";
            } else {
                double best_ms = 0.0;
                for (int rep = 0; rep < reps; ++rep) {
                    const auto t0 = std::chrono::steady_clock::now();
                    net::sharded_primary_flow(shard_sg, shard_soa, sopt, ws, result);
                    const auto t1 = std::chrono::steady_clock::now();
                    const double ms =
                        std::chrono::duration<double, std::milli>(t1 - t0).count();
                    if (rep == 0 || ms < best_ms) best_ms = ms;
                }
                row.ms = best_ms;
                if (shards == 1) shards1_ms = best_ms;
                row.speedup_vs_shards1 = best_ms > 0.0 ? shards1_ms / best_ms : 1.0;
                std::cout << shard_label << "  shards=" << shards << "  threads="
                          << row.threads << "  " << best_ms << " ms  x"
                          << row.speedup_vs_shards1 << "  identical="
                          << (row.identical_to_shards1 ? "true" : "false") << "\n";
            }
            shard_rows.push_back(row);
        }
    }
    if (!all_identical || !shards_identical) return 1;

    std::ofstream out(out_path);
    out << "{\n  \"bench\": \"micro_net\",\n"
        << "  \"hardware_threads\": " << hw << ",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
        << "  \"all_modes_identical_to_serial\": " << (all_identical ? "true" : "false") << ",\n"
        << "  \"bit_identical_across_shards\": " << (shards_identical ? "true" : "false") << ",\n"
        << "  \"note\": \"ms is best of reps, resolving one primary path per demand; fastpath "
           "speedup comes from one SSSP per distinct source (machine-independent), multi-shard "
           "rows additionally need hardware_threads > 1 and are skipped with a note on a "
           "1-thread machine (identity checks still run)\",\n"
        << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row& r = rows[i];
        out << "    {\"instance\": \"" << r.instance << "\", \"nodes\": " << r.nodes
            << ", \"links\": " << r.links << ", \"demands\": " << r.demands
            << ", \"distinct_sources\": " << r.distinct_sources << ", \"mode\": \"" << r.mode
            << "\", \"cache\": " << (r.cache ? "true" : "false") << ", \"ms\": " << r.ms
            << ", \"speedup_vs_serial\": " << r.speedup_vs_serial
            << ", \"cache_hits\": " << r.cache_hits << ", \"cache_misses\": " << r.cache_misses
            << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"shard_rows\": [\n";
    for (std::size_t i = 0; i < shard_rows.size(); ++i) {
        const ShardRow& r = shard_rows[i];
        out << "    {\"instance\": \"" << r.instance << "\", \"nodes\": " << r.nodes
            << ", \"links\": " << r.links << ", \"demands\": " << r.demands
            << ", \"distinct_sources\": " << r.distinct_sources << ", \"shards\": " << r.shards
            << ", \"threads\": " << r.threads << ", \"ms\": " << r.ms
            << ", \"speedup_vs_shards1\": " << r.speedup_vs_shards1
            << ", \"identical_to_shards1\": " << (r.identical_to_shards1 ? "true" : "false")
            << ", \"skipped\": " << (r.skipped ? "true" : "false");
        if (!r.note.empty()) out << ", \"note\": \"" << r.note << "\"";
        out << "}" << (i + 1 < shard_rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
