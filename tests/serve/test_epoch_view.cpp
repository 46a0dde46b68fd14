// EpochView freezing: a committed epoch's quotes, backbone path
// trees, and ledger balances become an immutable value; SLA grading
// covers the healthy/degraded/violated/unprovisioned lattice.
#include "serve/epoch_view.hpp"

#include <gtest/gtest.h>

#include "helpers/market.hpp"
#include "util/rng.hpp"

namespace poc::serve {
namespace {

using test::ParallelLinksFixture;
using util::Money;

/// Run one journald-off epoch and freeze its commit.
std::shared_ptr<const EpochView> one_epoch_view(const ParallelLinksFixture& fx,
                                                double demand_gbps,
                                                sim::RuntimeOptions opt = {}) {
    const market::OfferPool pool = fx.pool();
    const net::TrafficMatrix tm = fx.demand(demand_gbps);
    opt.epochs = 1;
    opt.demand_jitter = 0.0;
    std::shared_ptr<const EpochView> view;
    opt.on_epoch_commit = [&](const sim::EpochCommit& commit) {
        view = build_epoch_view(fx.graph, commit);
    };
    sim::EpochRuntime(pool, tm, opt).run();
    return view;
}

TEST(EpochView, FreezesQuotesBackboneAndBalances) {
    const ParallelLinksFixture fx;
    const auto view = one_epoch_view(fx, 5.0);
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->epoch, 0u);
    EXPECT_EQ(view->completed_epochs, 1u);
    EXPECT_FALSE(view->replayed);
    ASSERT_TRUE(view->provisioned);

    // 5 Gbps over 10-capacity links: one link suffices; A is cheapest,
    // its VCG payment is B's price ($150).
    ASSERT_EQ(view->quotes.size(), 3u);
    const BpQuote* a = view->quote_for("A");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->payment, Money::from_dollars(std::int64_t{150}));
    EXPECT_EQ(a->links_won, 1u);
    EXPECT_EQ(view->quote_for("nope"), nullptr);
    EXPECT_EQ(view->total_outlay, view->record.outlay);

    ASSERT_EQ(view->backbone.size(), 1u);

    // The ledger has POC activity, and the view's balance lookup
    // agrees with poc_net.
    const auto poc = view->balance(core::Party{core::PartyKind::kPoc, 0});
    ASSERT_TRUE(poc.has_value());
    EXPECT_EQ(*poc, view->poc_net);
    EXPECT_FALSE(view->balance(core::Party{core::PartyKind::kLmp, 99}).has_value());
}

TEST(EpochView, PathTreesAnswerOnTheProvisionedBackbone) {
    const ParallelLinksFixture fx;
    const auto view = one_epoch_view(fx, 5.0);
    ASSERT_NE(view, nullptr);
    ASSERT_EQ(view->trees.size(), fx.graph.node_count());
    const net::NodeId left{0u};
    const net::NodeId right{1u};
    const net::ShortestPathTree& tree = view->trees[left.index()];
    ASSERT_TRUE(tree.reachable(right));
    const std::vector<net::LinkId> path = tree.path_to(right);
    ASSERT_EQ(path.size(), 1u);
    // The path runs over the winning (provisioned) link, not just any
    // graph link.
    EXPECT_EQ(path[0], view->backbone[0]);
    EXPECT_DOUBLE_EQ(tree.dist[right.index()], 1.0);
}

TEST(EpochView, UnprovisionedEpochIsolatesEveryNode) {
    const ParallelLinksFixture fx;
    // 100 Gbps cannot fit any subset of three 10-capacity links: the
    // auction finds no feasible set even under relaxation.
    const auto view = one_epoch_view(fx, 100.0);
    ASSERT_NE(view, nullptr);
    EXPECT_FALSE(view->provisioned);
    EXPECT_TRUE(view->quotes.empty());
    EXPECT_TRUE(view->backbone.empty());
    EXPECT_EQ(view->sla(0.999), SlaStatus::kUnprovisioned);
    EXPECT_FALSE(view->trees[0].reachable(net::NodeId{1u}));
}

TEST(EpochView, SlaGradesTheFullLattice) {
    EpochView view;
    view.provisioned = true;
    view.record.delivered_fraction = 1.0;
    EXPECT_EQ(view.sla(0.999), SlaStatus::kHealthy);

    view.record.degraded_mode = true;
    EXPECT_EQ(view.sla(0.999), SlaStatus::kDegraded);
    view.record.degraded_mode = false;
    view.record.breaker_open = true;
    EXPECT_EQ(view.sla(0.999), SlaStatus::kDegraded);
    view.record.breaker_open = false;
    view.record.max_utilization = 1.25;
    EXPECT_EQ(view.sla(0.999), SlaStatus::kDegraded);

    // A delivery shortfall outranks degradation flags.
    view.record.delivered_fraction = 0.9;
    view.record.degraded_mode = true;
    EXPECT_EQ(view.sla(0.999), SlaStatus::kViolated);

    view.provisioned = false;
    EXPECT_EQ(view.sla(0.999), SlaStatus::kUnprovisioned);

    EXPECT_STREQ(sla_status_name(SlaStatus::kHealthy), "healthy");
    EXPECT_STREQ(sla_status_name(SlaStatus::kDegraded), "degraded");
    EXPECT_STREQ(sla_status_name(SlaStatus::kViolated), "violated");
    EXPECT_STREQ(sla_status_name(SlaStatus::kUnprovisioned), "unprovisioned");
}

TEST(EpochView, BuildsFromMaterializedState) {
    const ParallelLinksFixture fx;
    const market::OfferPool pool = fx.pool();
    const net::TrafficMatrix tm = fx.demand(5.0);
    sim::RuntimeOptions opt;
    opt.epochs = 2;
    const sim::RuntimeOutcome out = sim::EpochRuntime(pool, tm, opt).run();

    sim::RuntimeState state{out.epochs, out.auctions, out.ledger, out.final_rng, 0};
    const auto view = build_epoch_view(fx.graph, state);
    EXPECT_EQ(view->epoch, 1u);
    EXPECT_EQ(view->completed_epochs, 2u);
    EXPECT_TRUE(view->replayed);
    EXPECT_EQ(view->record, out.epochs.back());
}

TEST(EpochView, TreesCopiedFromThePreviousViewAreTheFreshTrees) {
    // A view built with the previously published one copies its path
    // trees when the backbone is unchanged. Across a sequence that
    // keeps, replaces, empties and restores the backbone, every view
    // encodes to the same bytes as one built from scratch.
    util::Rng rng(19);
    const net::Graph graph = test::random_connected(rng, 14, 18, 12.0);
    core::Ledger ledger;
    std::optional<market::AuctionResult> auction;
    std::shared_ptr<const EpochView> previous;
    int kept = 0;
    int changed = 0;
    for (std::size_t epoch = 0; epoch < 40; ++epoch) {
        const double u = rng.uniform(0.0, 1.0);
        if (epoch == 0 || u < 0.25) {
            market::AuctionResult next;
            for (const net::LinkId l : graph.all_links()) {
                if (rng.bernoulli(0.6)) next.selection.links.push_back(l);
            }
            auction = std::move(next);
        } else if (u < 0.35) {
            auction.reset();
        }
        ledger.record(core::Party{core::PartyKind::kLmp, 0}, core::Party{core::PartyKind::kPoc, 0},
                      core::TransferKind::kPocAccess,
                      Money::from_dollars(static_cast<std::int64_t>(epoch + 1)));
        sim::EpochRecord record;
        record.epoch = epoch;
        const auto fresh =
            build_epoch_view(graph, epoch, epoch + 1, false, record, auction, ledger);
        const auto built = build_epoch_view(graph, epoch, epoch + 1, false, record, auction,
                                            ledger, previous.get());
        EXPECT_EQ(encode_epoch_view(*built), encode_epoch_view(*fresh)) << "epoch " << epoch;
        ++(previous && previous->backbone == built->backbone ? kept : changed);
        previous = built;
    }
    EXPECT_GT(kept, 10);
    EXPECT_GT(changed, 10);
}

}  // namespace
}  // namespace poc::serve
