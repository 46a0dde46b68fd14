// Reply parity between the serving tiers: the leader (ServeEngine) and a
// replica (Follower) tailing the leader's journal answer through one
// read path, so at every epoch each query class gets byte-equal replies
// from both — quotes, paths, SLA standing, and point-in-time history
// (the view's canonical bytes, or the same error code).
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "helpers/market.hpp"
#include "serve/engine.hpp"
#include "serve/follower.hpp"
#include "util/journal.hpp"

namespace poc::serve {
namespace {

std::string reply_bytes(const QuoteReply& r) {
    util::BinaryWriter w;
    w.u8(static_cast<std::uint8_t>(r.code));
    w.u64(r.epoch);
    w.str(r.quote.name);
    w.i64(r.quote.payment.micros());
    w.i64(r.quote.bid_cost.micros());
    w.f64(r.quote.pob);
    w.u64(r.quote.links_won);
    w.i64(r.total_outlay.micros());
    return w.bytes();
}

std::string reply_bytes(const PathReply& r) {
    util::BinaryWriter w;
    w.u8(static_cast<std::uint8_t>(r.code));
    w.u64(r.epoch);
    w.u64(r.links.size());
    for (const net::LinkId l : r.links) w.u32(l.value());
    w.f64(r.length_km);
    return w.bytes();
}

std::string reply_bytes(const SlaReply& r) {
    util::BinaryWriter w;
    w.u8(static_cast<std::uint8_t>(r.code));
    w.u64(r.epoch);
    w.u8(static_cast<std::uint8_t>(r.status));
    w.f64(r.delivered_fraction);
    w.boolean(r.degraded);
    w.boolean(r.breaker_open);
    return w.bytes();
}

std::string reply_bytes(const HistoryReply& r) {
    util::BinaryWriter w;
    w.u8(static_cast<std::uint8_t>(r.code));
    w.boolean(r.view != nullptr);
    if (r.view) w.str(encode_epoch_view(*r.view));
    return w.bytes();
}

class ReplyParityTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("poc_reply_parity_" + std::string(info->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    /// One journaled run with a leader attached and a replica tailing
    /// the same journal (unbounded lag, a quota no query trips). After
    /// each commit the replica catches up to the leader and both tiers
    /// answer every query; returns the number of epochs compared.
    std::size_t expect_parity(const std::vector<market::BpBid>& bids,
                              const market::OfferPool& pool, const net::TrafficMatrix& tm,
                              sim::RuntimeOptions opt, const std::string& journal) {
        opt.journal_path = (dir_ / journal).string();
        const std::size_t nodes = pool.graph().node_count();
        std::vector<std::string> bp_names;
        for (const market::BpBid& bid : bids) bp_names.push_back(bid.name());
        bp_names.push_back("no-such-bp");
        std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
        for (std::size_t s = 0; s < nodes; ++s) {
            for (std::size_t d = 0; d < nodes; ++d) {
                pairs.emplace_back(net::NodeId{s}, net::NodeId{d});
            }
        }
        pairs.emplace_back(net::NodeId{0u}, net::NodeId{nodes});
        pairs.emplace_back(net::NodeId{nodes}, net::NodeId{0u});

        ServeOptions sopt;
        sopt.meter.quota_units = 1e12;
        ServeEngine leader(pool, tm, opt, sopt);
        FollowerOptions fopt;
        fopt.runtime = opt;
        Follower replica(pool, tm, fopt);

        // Before any epoch both tiers answer kNotServing.
        EXPECT_EQ(reply_bytes(leader.quote("parity", bp_names.front())),
                  reply_bytes(replica.quote(bp_names.front())));
        EXPECT_EQ(reply_bytes(leader.sla("parity")), reply_bytes(replica.sla()));
        EXPECT_EQ(leader.sla("parity").code, ServeError::kNotServing);

        std::size_t compared = 0;
        leader.attach(opt);
        const auto publish = opt.on_epoch_commit;
        opt.on_epoch_commit = [&](const sim::EpochCommit& commit) {
            publish(commit);
            for (int polls = 0; replica.applied_epochs() < commit.completed_epochs && polls < 256;
                 ++polls) {
                replica.poll();
            }
            ASSERT_EQ(replica.applied_epochs(), commit.completed_epochs);
            ASSERT_NE(replica.current(), nullptr);
            ASSERT_EQ(replica.current()->completed_epochs, commit.completed_epochs);
            ASSERT_EQ(leader.current()->completed_epochs, commit.completed_epochs);
            const std::string at = " at " + std::to_string(commit.completed_epochs) + " epochs";

            for (const std::string& bp : bp_names) {
                EXPECT_EQ(reply_bytes(leader.quote("parity", bp)), reply_bytes(replica.quote(bp)))
                    << "quote " << bp << at;
            }
            for (const auto& [src, dst] : pairs) {
                EXPECT_EQ(reply_bytes(leader.path("parity", src, dst)),
                          reply_bytes(replica.path(src, dst)))
                    << "path " << src.value() << "->" << dst.value() << at;
            }
            EXPECT_EQ(reply_bytes(leader.sla("parity")), reply_bytes(replica.sla()))
                << "sla" << at;
            for (std::uint64_t n = 0; n <= commit.completed_epochs; ++n) {
                EXPECT_EQ(reply_bytes(leader.at_epoch("parity", n)),
                          reply_bytes(replica.at_epoch(n)))
                    << "at_epoch(" << n << ")" << at;
            }
            ++compared;
        };
        sim::EpochRuntime(pool, tm, opt).run();
        EXPECT_EQ(leader.meter().rejected(), 0u);
        EXPECT_EQ(replica.stats().stale_rejects, 0u);
        return compared;
    }

    std::filesystem::path dir_;
};

sim::RuntimeOptions run_options(std::size_t epochs) {
    sim::RuntimeOptions opt;
    opt.epochs = epochs;
    opt.seed = 7;
    opt.demand_jitter = 0.05;
    // Snapshots with compaction: some epochs stay provable, others
    // are compacted away, so history replies cover both outcomes.
    opt.snapshot_interval = 2;
    return opt;
}

TEST_F(ReplyParityTest, LeaderAndReplicaAnswerByteEqualAtEveryEpoch) {
    const test::ParallelLinksFixture fx;
    const market::OfferPool pool = fx.pool();
    EXPECT_EQ(expect_parity(fx.bids, pool, fx.demand(5.0), run_options(6), "parallel.wal"), 6u);
}

TEST_F(ReplyParityTest, ParityHoldsOnMultiHopBackbones) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
        SCOPED_TRACE("instance seed " + std::to_string(seed));
        const test::RandomSmallInstance inst(seed);
        const market::OfferPool pool = inst.pool();
        EXPECT_EQ(expect_parity(inst.bids, pool, inst.tm, run_options(5),
                                "random-" + std::to_string(seed) + ".wal"),
                  5u);
    }
}

}  // namespace
}  // namespace poc::serve
