#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "helpers/graphs.hpp"
#include "obs/metrics.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace poc::sim {
namespace {

/// Copy of `g` with every link's capacity scaled by its own factor, ids
/// and lengths kept: the shape of chaos's brownout graphs.
net::Graph scaled_copy(const net::Graph& g, util::Rng& rng) {
    net::Graph out;
    out.add_nodes(g.node_count());
    for (const net::LinkId l : g.all_links()) {
        const net::Link& link = g.link(l);
        out.add_link(link.a, link.b, link.capacity_gbps * rng.uniform(0.3, 1.0),
                     link.length_km);
    }
    return out;
}

void expect_same_report(const core::FlowReport& got, const core::FlowReport& want,
                        const std::string& tag) {
    EXPECT_EQ(got.total_offered_gbps, want.total_offered_gbps) << tag;
    EXPECT_EQ(got.total_routed_gbps, want.total_routed_gbps) << tag;
    EXPECT_EQ(got.fully_routed, want.fully_routed) << tag;
    EXPECT_EQ(got.max_utilization, want.max_utilization) << tag;
    EXPECT_EQ(got.mean_utilization, want.mean_utilization) << tag;
    EXPECT_EQ(got.link_load_gbps, want.link_load_gbps) << tag;
    EXPECT_EQ(got.mean_path_km, want.mean_path_km) << tag;
    EXPECT_EQ(got.mean_shortest_km, want.mean_shortest_km) << tag;
    EXPECT_EQ(got.stretch, want.stretch) << tag;
    EXPECT_EQ(got.virtual_share, want.virtual_share) << tag;
}

TEST(Engine, FlowStageMatchesFreshSimulateFlows) {
    // One engine per routing carries its path cache and flow scratch
    // across a sequence of epochs: backbones that lose and regain links
    // (some cut apart), jittered and growing matrices, and
    // capacity-scaled graph copies. Every epoch's report equals a fresh
    // simulate_flows, with no cache and no scratch, field by field and
    // bit for bit.
    util::Rng build(31);
    const net::Graph graph = test::random_connected(build, 24, 30, 12.0);
    market::VirtualLinkContract contract;
    std::vector<bool> is_virtual(graph.link_count(), false);
    market::BpBid bid(market::BpId{0u}, "A");
    for (const net::LinkId l : graph.all_links()) {
        if (l.index() % 7 == 3) {
            contract.add(l, util::Money::from_dollars(std::int64_t{500}));
            is_virtual[l.index()] = true;
        } else {
            bid.offer(l, util::Money::from_dollars(std::int64_t{100}));
        }
    }
    const market::OfferPool pool({bid}, contract, graph);
    net::TrafficMatrix base;
    for (std::size_t i = 0; i < 40; ++i) {
        const auto a = static_cast<std::size_t>(build.uniform_int(std::uint64_t{24}));
        const auto b =
            (a + 1 + static_cast<std::size_t>(build.uniform_int(std::uint64_t{23}))) % 24;
        base.push_back({net::NodeId{a}, net::NodeId{b}, build.uniform(0.2, 2.0)});
    }

    for (const core::FlowRouting routing :
         {core::FlowRouting::kGreedy, core::FlowRouting::kPrimary}) {
        Engine engine(EngineOptions{}, core::ProvisioningRequest{}, routing, pool);
        core::FlowSimOptions fresh;
        fresh.routing = routing;
        util::Rng rng(routing == core::FlowRouting::kGreedy ? 7 : 8);
        int full = 0;
        int short_of_full = 0;
        for (int epoch = 0; epoch < 24; ++epoch) {
            const std::string tag = "routing " + std::to_string(static_cast<int>(routing)) +
                                    " epoch " + std::to_string(epoch);
            engine.advance_epoch();
            net::TrafficMatrix tm = base;
            const double growth = epoch % 4 == 3 ? 4.0 : 1.0;
            for (net::Demand& d : tm) d.gbps *= growth * rng.uniform(0.9, 1.1);
            const net::Graph scaled = scaled_copy(graph, rng);
            const net::Graph& g = epoch % 3 == 2 ? scaled : graph;
            // Now and then a cut deep enough to disconnect demands.
            const double cut = epoch % 5 == 4 ? 0.5 : 0.15;
            net::Subgraph backbone(g);
            for (const net::LinkId l : g.all_links()) {
                if (rng.bernoulli(cut)) backbone.set_active(l, false);
            }

            const core::FlowReport got = engine.flows(backbone, tm);
            const core::FlowReport want = core::simulate_flows(backbone, tm, is_virtual, fresh);
            expect_same_report(got, want, tag);
            ++(want.fully_routed ? full : short_of_full);
        }
        EXPECT_GT(full, 0);
        EXPECT_GT(short_of_full, 0);
    }
}

/// Every value of a report as bits, so -0.0 and 0.0 differ.
std::vector<std::uint64_t> report_bits(const core::FlowReport& r) {
    std::vector<std::uint64_t> bits;
    for (const double d : {r.total_offered_gbps, r.total_routed_gbps, r.max_utilization,
                           r.mean_utilization, r.mean_path_km, r.mean_shortest_km, r.stretch,
                           r.virtual_share}) {
        bits.push_back(std::bit_cast<std::uint64_t>(d));
    }
    bits.push_back(r.fully_routed ? 1 : 0);
    for (const double d : r.link_load_gbps) bits.push_back(std::bit_cast<std::uint64_t>(d));
    return bits;
}

TEST(Engine, FlowReuseAnswersEqualInputsOnly) {
    // The engine returns its last report when a call's inputs equal the
    // last pass's value for value, whatever objects carry them. A graph
    // rewritten in place with scaled capacities (the same address,
    // chaos's brownout shape), a demand flipped from 0.0 to -0.0 and
    // back, and a cut link are new inputs. Every report's bits equal a
    // fresh simulate_flows, and only real passes count core.flows.runs.
    util::Rng build(41);
    const net::Graph base = test::random_connected(build, 16, 20, 12.0);
    market::VirtualLinkContract contract;
    std::vector<bool> is_virtual(base.link_count(), false);
    market::BpBid bid(market::BpId{0u}, "A");
    for (const net::LinkId l : base.all_links()) {
        if (l.index() % 5 == 2) {
            contract.add(l, util::Money::from_dollars(std::int64_t{500}));
            is_virtual[l.index()] = true;
        } else {
            bid.offer(l, util::Money::from_dollars(std::int64_t{100}));
        }
    }
    const market::OfferPool pool({bid}, contract, base);
    net::TrafficMatrix tm;
    for (std::size_t i = 0; i < 30; ++i) {
        const auto a = static_cast<std::size_t>(build.uniform_int(std::uint64_t{16}));
        const auto b =
            (a + 1 + static_cast<std::size_t>(build.uniform_int(std::uint64_t{15}))) % 16;
        tm.push_back({net::NodeId{a}, net::NodeId{b}, build.uniform(0.5, 3.0)});
    }
    tm.push_back({net::NodeId{0u}, net::NodeId{9u}, 0.0});
    net::TrafficMatrix negative_zero = tm;
    negative_zero.back().gbps = -0.0;
    std::vector<net::LinkId> links;
    for (const net::LinkId l : base.all_links()) {
        if (l.index() % 4 != 1) links.push_back(l);
    }
    std::vector<net::LinkId> cut = links;
    cut.erase(cut.begin() + 3);

    for (const core::FlowRouting routing :
         {core::FlowRouting::kGreedy, core::FlowRouting::kPrimary}) {
        Engine engine(EngineOptions{}, core::ProvisioningRequest{}, routing, pool);
        core::FlowSimOptions fresh;
        fresh.routing = routing;
        util::Rng rng(routing == core::FlowRouting::kGreedy ? 3 : 4);
        net::Graph g = base;
        const net::Graph* const address = &g;
        std::uint64_t reuses = 0;
        std::uint64_t runs = 0;
        const auto step = [&](const std::vector<net::LinkId>& active,
                              const net::TrafficMatrix& matrix, bool reused,
                              const std::string& tag) {
#if POC_OBS_ENABLED
            auto& reuse_counter = obs::registry().counter("sim.engine.flow_reuses");
            auto& run_counter = obs::registry().counter("core.flows.runs");
            const std::uint64_t reuses0 = reuse_counter.value();
            const std::uint64_t runs0 = run_counter.value();
#endif
            const net::Subgraph backbone(g, active);
            const net::TrafficMatrix copy = matrix;
            const core::FlowReport got = engine.flows(backbone, copy);
#if POC_OBS_ENABLED
            EXPECT_EQ(reuse_counter.value() - reuses0, reused ? 1u : 0u) << tag;
            EXPECT_EQ(run_counter.value() - runs0, reused ? 0u : 1u) << tag;
#endif
            ++(reused ? reuses : runs);
            const core::FlowReport want = core::simulate_flows(backbone, matrix, is_virtual, fresh);
            EXPECT_EQ(report_bits(got), report_bits(want)) << tag;
            return got;
        };

        const core::FlowReport first = step(links, tm, false, "first pass");
        step(links, tm, true, "repeat");
        step(links, tm, true, "repeat again");
        g = scaled_copy(base, rng);
        ASSERT_EQ(&g, address);
        const core::FlowReport scaled = step(links, tm, false, "scaled in place");
        EXPECT_NE(report_bits(scaled), report_bits(first));
        step(links, tm, true, "scaled repeat");
        step(links, negative_zero, false, "-0.0 demand");
        step(links, negative_zero, true, "-0.0 repeat");
        step(links, tm, false, "+0.0 demand");
        step(cut, tm, false, "cut link");
        step(links, tm, false, "restored link");
        EXPECT_EQ(reuses, 4u);
        EXPECT_EQ(runs, 6u);
    }
}

TEST(Engine, ClearRefusesAPoolWithOtherVirtualLinks) {
    // The flow pass reports the constructor's pool's virtual links as
    // virtual share, so a pool that contracts other ones is refused
    // rather than measured wrong. A pool over a capacity-scaled copy
    // with the same contract is accepted.
    util::Rng build(5);
    const net::Graph graph = test::random_connected(build, 8, 6, 12.0);
    const auto pool_with_virtual = [](const net::Graph& g, std::size_t every,
                                      std::size_t residue) {
        market::VirtualLinkContract contract;
        market::BpBid bid(market::BpId{0u}, "A");
        for (const net::LinkId l : g.all_links()) {
            if (l.index() % every == residue) {
                contract.add(l, util::Money::from_dollars(std::int64_t{500}));
            } else {
                bid.offer(l, util::Money::from_dollars(std::int64_t{100}));
            }
        }
        return market::OfferPool({bid}, contract, g);
    };
    const market::OfferPool pool = pool_with_virtual(graph, 3, 1);
    const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{5u}, 1.0}};
    Engine engine(EngineOptions{}, core::ProvisioningRequest{}, core::FlowRouting::kGreedy, pool);

    util::Rng rng(6);
    const net::Graph scaled = scaled_copy(graph, rng);
    EXPECT_NO_THROW(engine.clear(pool_with_virtual(scaled, 3, 1), tm, market::ConstraintKind::kLoad));
    // As many virtual links but other ones, then more of them.
    EXPECT_THROW(engine.clear(pool_with_virtual(graph, 3, 2), tm, market::ConstraintKind::kLoad),
                 util::ContractViolation);
    EXPECT_THROW(engine.clear(pool_with_virtual(graph, 2, 1), tm, market::ConstraintKind::kLoad),
                 util::ContractViolation);
}

}  // namespace
}  // namespace poc::sim
