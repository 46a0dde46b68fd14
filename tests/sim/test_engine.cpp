#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers/graphs.hpp"
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
