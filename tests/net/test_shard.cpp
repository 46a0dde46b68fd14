// Sharded shared-nothing data plane (DESIGN.md §9): the partition
// plan's invariants, the SoA traffic matrix round trip, bit-identity
// of sharded_primary_flow across shard counts x thread counts x cache
// modes, semantic agreement with a naive per-demand reference, and the
// zero-allocation steady state of the serial per-shard path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <vector>

#include "core/flow_sim.hpp"
#include "helpers/graphs.hpp"
#include "net/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"

using namespace poc;
using net::LinkId;
using net::NodeId;

namespace {

thread_local std::uint64_t g_thread_allocs = 0;

}  // namespace

// GCC attributes inlined delete-after-make_unique sites to the free()
// below and flags a new/free mismatch; every new in this binary goes
// through the malloc-backed replacement above it, so the pairing is
// correct.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
    ++g_thread_allocs;
    if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
    throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace {

net::TrafficMatrix random_demands(util::Rng& rng, std::size_t nodes, std::size_t count,
                                  std::size_t max_sources) {
    net::TrafficMatrix tm;
    for (std::size_t i = 0; i < count; ++i) {
        const auto s =
            static_cast<std::size_t>(rng.uniform_int(std::uint64_t{max_sources})) % nodes;
        auto t = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{nodes}));
        if (t == s) t = (t + 1) % nodes;
        tm.push_back({NodeId{s}, NodeId{t}, rng.uniform(0.5, 5.0)});
    }
    return tm;
}

void expect_results_identical(const net::ShardFlowResult& a, const net::ShardFlowResult& b,
                              const std::string& tag) {
    // Exact double equality on purpose: the contract is bit-identity.
    EXPECT_EQ(a.routed_gbps, b.routed_gbps) << tag;
    EXPECT_EQ(a.weighted_km, b.weighted_km) << tag;
    EXPECT_EQ(a.total_gbps_km, b.total_gbps_km) << tag;
    EXPECT_EQ(a.virtual_gbps_km, b.virtual_gbps_km) << tag;
    EXPECT_EQ(a.admitted, b.admitted) << tag;
    EXPECT_EQ(a.unrouted, b.unrouted) << tag;
    ASSERT_EQ(a.link_load_gbps.size(), b.link_load_gbps.size()) << tag;
    for (std::size_t l = 0; l < a.link_load_gbps.size(); ++l) {
        EXPECT_EQ(a.link_load_gbps[l], b.link_load_gbps[l]) << tag << " link " << l;
    }
}

TEST(TrafficMatrixSoA, RoundTripIsExactAndBlocksAreSorted) {
    util::Rng rng(31);
    for (int round = 0; round < 10; ++round) {
        const std::size_t n = 20;
        const net::TrafficMatrix tm = random_demands(rng, n, 120, 7);
        const net::TrafficMatrixSoA soa(tm);
        ASSERT_EQ(soa.size(), tm.size());

        // Sorted ascending by source; stable within equal-source runs.
        for (std::size_t k = 1; k < soa.size(); ++k) {
            EXPECT_LE(soa.src()[k - 1], soa.src()[k]);
            if (soa.src()[k - 1] == soa.src()[k]) {
                EXPECT_LT(soa.original_index()[k - 1], soa.original_index()[k]);
            }
        }
        // Every sorted entry carries its AoS demand verbatim.
        for (std::size_t k = 0; k < soa.size(); ++k) {
            const net::Demand& d = tm[soa.original_index()[k]];
            EXPECT_EQ(soa.src()[k], d.src.value());
            EXPECT_EQ(soa.dst()[k], d.dst.value());
            EXPECT_EQ(soa.gbps()[k], d.gbps);
        }
        // Block structure: sources strictly ascending, boundaries cover.
        ASSERT_EQ(soa.block_begin().size(), soa.sources().size() + 1);
        EXPECT_EQ(soa.block_begin().front(), 0u);
        EXPECT_EQ(soa.block_begin().back(), soa.size());
        for (std::size_t b = 0; b < soa.sources().size(); ++b) {
            EXPECT_LT(soa.block_begin()[b], soa.block_begin()[b + 1]);
            if (b > 0) {
                EXPECT_LT(soa.sources()[b - 1], soa.sources()[b]);
            }
            for (std::uint32_t k = soa.block_begin()[b]; k < soa.block_begin()[b + 1]; ++k) {
                EXPECT_EQ(soa.src()[k], soa.sources()[b]);
            }
        }
        // The round trip reproduces the AoS list exactly.
        const net::TrafficMatrix back = soa.to_aos();
        ASSERT_EQ(back.size(), tm.size());
        for (std::size_t j = 0; j < tm.size(); ++j) {
            EXPECT_EQ(back[j].src, tm[j].src);
            EXPECT_EQ(back[j].dst, tm[j].dst);
            EXPECT_EQ(back[j].gbps, tm[j].gbps);
        }
    }
}

TEST(TrafficMatrixSoA, EmptyMatrix) {
    const net::TrafficMatrixSoA soa{net::TrafficMatrix{}};
    EXPECT_TRUE(soa.empty());
    EXPECT_TRUE(soa.sources().empty());
    ASSERT_EQ(soa.block_begin().size(), 1u);
    EXPECT_EQ(soa.block_begin()[0], 0u);
    EXPECT_TRUE(soa.to_aos().empty());
}

TEST(ShardPlan, BoundariesCoverEveryBlockNonEmptyAndBalanced) {
    util::Rng rng(37);
    const net::TrafficMatrix tm = random_demands(rng, 40, 300, 23);
    const net::TrafficMatrixSoA soa(tm);
    const std::size_t blocks = soa.sources().size();
    ASSERT_GE(blocks, 4u);

    for (const std::size_t shards : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                     std::size_t{4}, std::size_t{8}, std::size_t{1000}}) {
        const net::ShardPlan plan = net::plan_shards(soa, shards);
        const std::size_t expect_count =
            std::min(shards == 0 ? std::size_t{1} : shards, blocks);
        ASSERT_EQ(plan.shard_count(), expect_count) << "shards " << shards;
        EXPECT_EQ(plan.source_begin.front(), 0u);
        EXPECT_EQ(plan.source_begin.back(), blocks);
        for (std::size_t s = 0; s < plan.shard_count(); ++s) {
            EXPECT_LT(plan.source_begin[s], plan.source_begin[s + 1])
                << "shards " << shards << " shard " << s << " empty";
        }
    }

    // Balance sanity at a divisible shard count: no shard owns more
    // than the ideal share plus one full source block.
    const net::ShardPlan plan = net::plan_shards(soa, 4);
    std::uint32_t max_block = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
        max_block = std::max(max_block, soa.block_begin()[b + 1] - soa.block_begin()[b]);
    }
    for (std::size_t s = 0; s < plan.shard_count(); ++s) {
        const std::uint32_t demands = soa.block_begin()[plan.source_begin[s + 1]] -
                                      soa.block_begin()[plan.source_begin[s]];
        EXPECT_LE(demands, soa.size() / 4 + max_block) << "shard " << s;
    }
}

TEST(ShardPlan, EmptyMatrixYieldsNoShards) {
    const net::TrafficMatrixSoA soa{net::TrafficMatrix{}};
    EXPECT_EQ(net::plan_shards(soa, 4).shard_count(), 0u);
}

TEST(ShardedPrimaryFlow, BitIdenticalAcrossShardsThreadsAndCacheModes) {
    util::Rng rng(41);
    for (int round = 0; round < 6; ++round) {
        const std::size_t n = 24 + static_cast<std::size_t>(rng.uniform_int(40));
        const net::Graph g = test::random_connected(rng, n, n / 2 + 2);
        net::Subgraph sg(g);
        for (const LinkId l : g.all_links()) {
            if (rng.uniform(0.0, 1.0) < 0.2) sg.set_active(l, false);
        }
        net::TrafficMatrix tm = random_demands(rng, n, 200, 11);
        tm[3].gbps = 0.0;  // zero demands must not perturb anything
        const net::TrafficMatrixSoA soa(tm);
        std::vector<bool> is_virtual(g.link_count(), false);
        is_virtual[0] = true;
        is_virtual[g.link_count() / 2] = true;

        net::ShardOptions ref_opt;
        ref_opt.is_virtual = &is_virtual;
        net::ShardWorkspace ref_ws;
        net::ShardFlowResult reference;
        net::sharded_primary_flow(sg, soa, ref_opt, ref_ws, reference);

        net::PathCache cache;
        net::PathCache repair_cache(1, 4);
        net::ShardWorkspace ws;  // reused across configs: exercises reset
        net::ShardFlowResult got;
        for (const std::size_t shards :
             {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
            for (const std::size_t threads :
                 {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
                for (net::PathCache* c :
                     {static_cast<net::PathCache*>(nullptr), &cache, &repair_cache}) {
                    net::ShardOptions opt = ref_opt;
                    opt.shards = shards;
                    opt.threads = threads;
                    opt.cache = c;
                    net::sharded_primary_flow(sg, soa, opt, ws, got);
                    expect_results_identical(
                        reference, got,
                        "round " + std::to_string(round) + " shards " +
                            std::to_string(shards) + " threads " + std::to_string(threads) +
                            " cache " + std::to_string(c != nullptr ? 1 + (c == &repair_cache) : 0));
                }
            }
        }
    }
}

TEST(ShardedPrimaryFlow, MatchesNaivePerDemandReference) {
    util::Rng rng(43);
    const std::size_t n = 30;
    const net::Graph g = test::random_connected(rng, n, 18);
    net::Subgraph sg(g);
    sg.set_active(LinkId{1u}, false);
    const net::TrafficMatrix tm = random_demands(rng, n, 150, 9);
    const net::TrafficMatrixSoA soa(tm);

    net::ShardOptions opt;
    opt.shards = 4;
    net::ShardWorkspace ws;
    net::ShardFlowResult got;
    net::sharded_primary_flow(sg, soa, opt, ws, got);

    std::vector<double> load(g.link_count(), 0.0);
    double routed = 0.0;
    double weighted = 0.0;
    std::size_t admitted = 0;
    std::size_t unrouted = 0;
    const net::LinkWeight w = net::weight_by_length(g);
    for (const net::Demand& d : tm) {
        if (d.gbps <= 0.0) continue;
        const auto path = net::shortest_path(sg, d.src, d.dst, w);
        if (!path) {
            ++unrouted;
            continue;
        }
        ++admitted;
        routed += d.gbps;
        weighted += d.gbps * path->weight;
        for (const LinkId l : path->links) load[l.index()] += d.gbps;
    }

    EXPECT_EQ(got.admitted, admitted);
    EXPECT_EQ(got.unrouted, unrouted);
    EXPECT_NEAR(got.routed_gbps, routed, 1e-9 * routed);
    EXPECT_NEAR(got.weighted_km, weighted, 1e-9 * weighted);
    for (std::size_t l = 0; l < load.size(); ++l) {
        EXPECT_NEAR(got.link_load_gbps[l], load[l], 1e-9 * (load[l] + 1.0)) << "link " << l;
    }
}

TEST(ShardedPrimaryFlow, SimulateFlowsPrimaryReportInvariants) {
    util::Rng rng(47);
    const net::Graph g = test::random_connected(rng, 40, 25);
    const net::Subgraph sg(g);
    const net::TrafficMatrix tm = random_demands(rng, 40, 120, 13);

    core::FlowSimOptions opt;
    opt.routing = core::FlowRouting::kPrimary;
    const core::FlowReport a = core::simulate_flows(sg, tm, {}, opt);

    EXPECT_TRUE(a.fully_routed);  // connected graph, all links active
    EXPECT_EQ(a.total_offered_gbps, net::total_demand(tm));
    EXPECT_NEAR(a.total_routed_gbps, a.total_offered_gbps, 1e-9 * a.total_offered_gbps);
    EXPECT_EQ(a.stretch, 1.0);  // primary path IS the shortest path
    EXPECT_EQ(a.mean_path_km, a.mean_shortest_km);
    EXPECT_GT(a.max_utilization, 0.0);

    // The report is bit-identical with scratch reused across calls.
    core::FlowWorkspace ws;
    core::FlowSimOptions opt2 = opt;
    opt2.workspace = &ws;
    for (int pass = 0; pass < 2; ++pass) {
        const core::FlowReport b = core::simulate_flows(sg, tm, {}, opt2);
        EXPECT_EQ(a.total_routed_gbps, b.total_routed_gbps) << "pass " << pass;
        EXPECT_EQ(a.max_utilization, b.max_utilization) << "pass " << pass;
        EXPECT_EQ(a.mean_utilization, b.mean_utilization) << "pass " << pass;
        EXPECT_EQ(a.mean_path_km, b.mean_path_km) << "pass " << pass;
        EXPECT_EQ(a.link_load_gbps, b.link_load_gbps) << "pass " << pass;
    }
}

TEST(ShardedPrimaryFlow, SyntheticContinentalInstanceRoutesAndShardsIdentically) {
    topo::SyntheticTopologyOptions topt;
    topt.nodes = 2000;
    topt.regions = 16;
    topt.seed = 3;
    const topo::SyntheticTopology topo = topo::build_synthetic_topology(topt);
    topo::ContinentalTrafficOptions copt;
    copt.demands = 5000;
    copt.max_sources = 64;
    const net::TrafficMatrix tm = topo::continental_traffic(topo, copt);
    const net::TrafficMatrixSoA soa(tm);
    const net::Subgraph sg(topo.graph);

    net::ShardWorkspace ws;
    net::ShardFlowResult reference;
    net::sharded_primary_flow(sg, soa, net::ShardOptions{}, ws, reference);
    EXPECT_EQ(reference.unrouted, 0u);  // trunked grid is connected
    EXPECT_EQ(reference.admitted, tm.size());

    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        net::ShardOptions opt;
        opt.shards = shards;
        opt.threads = 2;
        net::ShardFlowResult got;
        net::sharded_primary_flow(sg, soa, opt, ws, got);
        expect_results_identical(reference, got, "shards " + std::to_string(shards));
    }
}

#if POC_OBS_ENABLED
TEST(ShardedPrimaryFlow, EmitsShardObservability) {
    util::Rng rng(59);
    const net::Graph g = test::random_connected(rng, 20, 10);
    const net::Subgraph sg(g);
    const net::TrafficMatrixSoA soa(random_demands(rng, 20, 60, 8));

    obs::registry().reset();
    (void)obs::traces().drain();
    net::ShardOptions opt;
    opt.shards = 4;
    net::ShardWorkspace ws;
    net::ShardFlowResult out;
    net::sharded_primary_flow(sg, soa, opt, ws, out);

    std::uint64_t runs = 0, tasks = 0;
    for (const auto& c : obs::registry().counter_samples()) {
        if (c.name == "net.shard.runs") runs = c.value;
        if (c.name == "net.shard.tasks") tasks = c.value;
    }
    EXPECT_EQ(runs, 1u);
    EXPECT_EQ(tasks, 4u);

    bool saw_imbalance = false;
    for (const auto& gs : obs::registry().gauge_samples()) {
        if (gs.name == "net.shard.imbalance") {
            saw_imbalance = true;
            EXPECT_GE(gs.value, 100);  // max/mean ratio, percent: >= 100
        }
    }
    EXPECT_TRUE(saw_imbalance);

    bool saw_merge = false;
    for (const auto& h : obs::registry().histogram_samples()) {
        if (h.name == "net.shard.merge_ms") {
            saw_merge = true;
            EXPECT_EQ(h.total, 1u);
        }
    }
    EXPECT_TRUE(saw_merge);

    // One run span + one span per shard task.
    std::size_t run_spans = 0, task_spans = 0;
    for (const auto& s : obs::traces().drain()) {
        if (s.name == std::string_view{"net.shard.run"}) ++run_spans;
        if (s.name == std::string_view{"net.shard.task"}) ++task_spans;
    }
    EXPECT_EQ(run_spans, 1u);
    EXPECT_EQ(task_spans, 4u);
}
#endif  // POC_OBS_ENABLED

TEST(ShardedPrimaryFlow, SteadyStateSerialPathIsAllocationFree) {
    util::Rng rng(53);
    const net::Graph g = test::random_connected(rng, 80, 50);
    const net::Subgraph sg(g);
    const net::TrafficMatrix tm = random_demands(rng, 80, 400, 17);
    const net::TrafficMatrixSoA soa(tm);

    net::ShardOptions opt;
    opt.shards = 4;  // serial execution of 4 shard tasks
    net::ShardWorkspace ws;
    net::ShardFlowResult out;
    // Warm-up: size every per-shard buffer, the result arrays, the obs
    // registry statics, and the trace ring's capacity.
    for (int i = 0; i < 50; ++i) net::sharded_primary_flow(sg, soa, opt, ws, out);
#if POC_OBS_ENABLED
    (void)obs::traces().drain();  // empty the span ring, keeping capacity
#endif
    const std::uint64_t before = g_thread_allocs;
    for (int i = 0; i < 5; ++i) net::sharded_primary_flow(sg, soa, opt, ws, out);
    EXPECT_EQ(g_thread_allocs - before, 0u)
        << "sharded per-shard path allocated in the steady state";
}

}  // namespace
