// The always-on market daemon end to end: RCU rollovers under
// concurrent readers, structured error codes, admission backpressure,
// point-in-time materialization equal to a from-scratch rerun, and
// the read-only proof — a journaled run under a query storm stays
// bit-identical to one without.
#include "serve/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "helpers/market.hpp"
#include "util/journal.hpp"

namespace poc::serve {
namespace {

using test::ParallelLinksFixture;
using util::Money;

/// Byte-exact comparison key for an optional auction result, with the
/// work-accounting diagnostics scrubbed (same rule as test_runtime).
std::string auction_bytes(const std::optional<market::AuctionResult>& a) {
    util::BinaryWriter w;
    w.boolean(a.has_value());
    if (a) {
        market::AuctionResult scrubbed = *a;
        scrubbed.oracle_queries = 0;
        scrubbed.oracle_cache_hits = 0;
        scrubbed.solve_cache_hits = 0;
        market::write_auction_result(w, scrubbed);
    }
    return w.bytes();
}

void expect_identical(const sim::RuntimeOutcome& got, const sim::RuntimeOutcome& want,
                      const std::string& context) {
    EXPECT_EQ(got.epochs, want.epochs) << context;
    EXPECT_EQ(got.ledger.transfers(), want.ledger.transfers()) << context;
    EXPECT_TRUE(got.final_rng == want.final_rng) << context;
    ASSERT_EQ(got.auctions.size(), want.auctions.size()) << context;
    for (std::size_t i = 0; i < got.auctions.size(); ++i) {
        EXPECT_EQ(auction_bytes(got.auctions[i]), auction_bytes(want.auctions[i]))
            << context << " (epoch " << i << ")";
    }
}

class ServeEngineTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("poc_serve_test_" + std::string(info->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string journal(const std::string& name) const { return (dir_ / name).string(); }

    sim::RuntimeOptions base_options(std::size_t epochs) const {
        sim::RuntimeOptions opt;
        opt.epochs = epochs;
        opt.seed = 7;
        opt.demand_jitter = 0.05;
        return opt;
    }

    ParallelLinksFixture fx_;
    std::filesystem::path dir_;
};

TEST_F(ServeEngineTest, ServesQuotesPathsAndSlaAcrossRollovers) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = base_options(4);
    opt.journal_path = journal("serve.wal");

    ServeEngine engine(pool, tm, opt, {});
    EXPECT_EQ(engine.current(), nullptr);
    EXPECT_EQ(engine.quote("acct", "A").code, ServeError::kNotServing);

    engine.attach(opt);
    sim::EpochRuntime(pool, tm, opt).run();

    // >= 3 rollovers happened and the newest epoch is published.
    EXPECT_EQ(engine.rollovers(), 4u);
    const auto view = engine.current();
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->epoch, 3u);
    EXPECT_EQ(view->completed_epochs, 4u);

    const auto quote = engine.quote("acct", "A");
    ASSERT_EQ(quote.code, ServeError::kOk);
    EXPECT_EQ(quote.epoch, 3u);
    EXPECT_EQ(quote.quote.payment, Money::from_dollars(std::int64_t{150}));
    EXPECT_EQ(engine.quote("acct", "Zed").code, ServeError::kUnknownBp);

    const auto path = engine.path("acct", net::NodeId{0u}, net::NodeId{1u});
    ASSERT_EQ(path.code, ServeError::kOk);
    EXPECT_EQ(path.links.size(), 1u);
    EXPECT_EQ(engine.path("acct", net::NodeId{0u}, net::NodeId{42u}).code,
              ServeError::kUnknownNode);
    EXPECT_EQ(engine.path("acct", net::NodeId{}, net::NodeId{1u}).code,
              ServeError::kUnknownNode);

    const auto sla = engine.sla("acct");
    ASSERT_EQ(sla.code, ServeError::kOk);
    EXPECT_EQ(sla.status, SlaStatus::kHealthy);
    EXPECT_DOUBLE_EQ(sla.delivered_fraction, 1.0);
}

TEST_F(ServeEngineTest, ConcurrentReadersNeverSeeATornRollover) {
    // The TSan target: query threads hammer the hub while the runtime
    // publishes >= 3 rollovers. Readers must always observe a fully
    // built epoch (monotone epoch numbers, internally consistent
    // views), and the run must complete with every reply well-formed.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = base_options(6);
    opt.journal_path = journal("concurrent.wal");

    ServeOptions sopt;
    sopt.meter.quota_units = 1e9;  // admission off the critical path
    ServeEngine engine(pool, tm, opt, sopt);
    engine.attach(opt);

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> reads{0};
    std::atomic<std::uint64_t> torn{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 3; ++t) {
        readers.emplace_back([&, t] {
            const std::string account = "reader-" + std::to_string(t);
            std::size_t last_epoch = 0;
            // do-while: at least one full query round even if the run
            // outpaces thread startup.
            do {
                const auto view = engine.current();
                if (view) {
                    // Epochs only move forward, and a published view is
                    // complete: trees for every node, record matching
                    // the epoch number.
                    if (view->epoch + 1 != view->completed_epochs ||
                        view->epoch < last_epoch ||
                        view->trees.size() != pool.graph().node_count() ||
                        view->record.epoch != view->epoch) {
                        torn.fetch_add(1);
                    }
                    last_epoch = view->epoch;
                }
                const auto sla = engine.sla(account);
                if (view && sla.code != ServeError::kOk) torn.fetch_add(1);
                engine.quote(account, "A");
                engine.path(account, net::NodeId{0u}, net::NodeId{1u});
                reads.fetch_add(1);
            } while (!done.load(std::memory_order_acquire));
        });
    }

    const sim::RuntimeOutcome out = sim::EpochRuntime(pool, tm, opt).run();
    done.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();

    EXPECT_EQ(out.epochs.size(), 6u);
    EXPECT_EQ(engine.rollovers(), 6u);
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    // A reader that grabbed an old epoch's view still holds valid
    // state after every rollover (RCU: old epochs die with their last
    // reader, not at swap time).
    const auto view = engine.current();
    ASSERT_NE(view, nullptr);
    EXPECT_EQ(view->epoch, 5u);
}

TEST_F(ServeEngineTest, QueryStormIsBitNonPerturbing) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);

    // Baseline: journaled run, no daemon attached.
    sim::RuntimeOptions quiet = base_options(5);
    quiet.journal_path = journal("quiet.wal");
    const sim::RuntimeOutcome baseline = sim::EpochRuntime(pool, tm, quiet).run();

    // Stormed: same run with the daemon attached and a query storm --
    // synchronous queries from the commit hook plus concurrent ones on
    // their own threads, including historical materializations that scan
    // the live journal mid-run.
    sim::RuntimeOptions stormed = base_options(5);
    stormed.journal_path = journal("stormed.wal");
    ServeOptions sopt;
    sopt.meter.quota_units = 1e9;
    ServeEngine engine(pool, tm, stormed, sopt);
    engine.attach(stormed);
    std::vector<std::thread> queries;
    const auto user_hook = stormed.on_epoch_commit;
    stormed.on_epoch_commit = [&](const sim::EpochCommit& commit) {
        user_hook(commit);
        for (int i = 0; i < 8; ++i) {
            engine.quote("storm", "B");
            engine.sla("storm");
            engine.path("storm", net::NodeId{0u}, net::NodeId{1u});
            queries.emplace_back([&engine] { engine.sla("storm-async"); });
        }
        engine.at_epoch("storm", commit.completed_epochs);
    };
    const sim::RuntimeOutcome under_storm = sim::EpochRuntime(pool, tm, stormed).run();
    for (std::thread& query : queries) query.join();

    expect_identical(under_storm, baseline, "query storm must not perturb the run");

    // And the stormed journal replays bit-identical: queries wrote
    // nothing. (Fresh runtime over the stormed journal, no daemon.)
    sim::RuntimeOptions replay = base_options(5);
    replay.journal_path = journal("stormed.wal");
    const sim::RuntimeOutcome replayed = sim::EpochRuntime(pool, tm, replay).run();
    EXPECT_EQ(replayed.replayed_epochs, 5u);
    expect_identical(replayed, baseline, "stormed journal replay");
}

TEST_F(ServeEngineTest, PointInTimeMatchesFromScratchAtEveryEpoch) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = base_options(5);
    opt.journal_path = journal("history.wal");
    opt.snapshot_interval = 2;  // mixed grounding: snapshots + suffix replay
    // Keep the full journal: compaction trades historical range for
    // log size (see CompactionBoundsTheProvableRange below).
    opt.compact_after_snapshot = false;

    ServeOptions sopt;
    sopt.meter.quota_units = 1e9;
    ServeEngine engine(pool, tm, opt, sopt);
    engine.attach(opt);
    sim::EpochRuntime(pool, tm, opt).run();

    for (std::uint64_t n = 1; n <= 5; ++n) {
        const auto got = engine.at_epoch("auditor", n);
        ASSERT_EQ(got.code, ServeError::kOk) << "epochs=" << n;
        ASSERT_NE(got.view, nullptr);

        // From-scratch rerun of exactly n epochs, fresh journal.
        sim::RuntimeOptions scratch = base_options(n);
        scratch.journal_path = journal("scratch-" + std::to_string(n) + ".wal");
        const sim::RuntimeOutcome want = sim::EpochRuntime(pool, tm, scratch).run();

        EXPECT_EQ(got.view->completed_epochs, n);
        EXPECT_EQ(got.view->record, want.epochs.back()) << "epochs=" << n;
        EXPECT_EQ(got.view->poc_net, want.ledger.poc_net()) << "epochs=" << n;
        ASSERT_FALSE(got.view->quotes.empty());
        EXPECT_EQ(want.auctions.back().has_value(), got.view->provisioned);
    }

    // A repeated query answers the same epoch again.
    const auto again = engine.at_epoch("auditor", 3);
    ASSERT_EQ(again.code, ServeError::kOk);
    EXPECT_EQ(again.view->completed_epochs, 3u);

    // Unprovable targets are structured errors, not crashes.
    EXPECT_EQ(engine.at_epoch("auditor", 0).code, ServeError::kHistoryUnavailable);
    EXPECT_EQ(engine.at_epoch("auditor", 99).code, ServeError::kHistoryUnavailable);
}

TEST_F(ServeEngineTest, CompactionBoundsTheProvableRange) {
    // With compact_after_snapshot on (the default), the journal holds
    // only the suffix past the newest snapshot: point-in-time queries
    // can prove exactly the retained snapshots and epochs reachable
    // from them — earlier epochs answer kHistoryUnavailable instead of
    // silently wrong data.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = base_options(5);
    opt.journal_path = journal("compacted.wal");
    opt.snapshot_interval = 2;  // snapshots at 2 and 4, compacted after each

    ServeOptions sopt;
    sopt.meter.quota_units = 1e9;
    ServeEngine engine(pool, tm, opt, sopt);
    engine.attach(opt);
    sim::EpochRuntime(pool, tm, opt).run();

    // Provable: snapshot epochs and the journal suffix past them.
    for (const std::uint64_t n : {2u, 4u, 5u}) {
        const auto got = engine.at_epoch("auditor", n);
        EXPECT_EQ(got.code, ServeError::kOk) << "epochs=" << n;
        if (got.view) {
            EXPECT_EQ(got.view->completed_epochs, n);
        }
    }
    // Dropped by compaction: epoch 1 and 3 predate the snapshots and
    // their journal records are gone.
    for (const std::uint64_t n : {1u, 3u}) {
        EXPECT_EQ(engine.at_epoch("auditor", n).code, ServeError::kHistoryUnavailable)
            << "epochs=" << n;
    }
}

TEST_F(ServeEngineTest, AdmissionControlRejectsOverQuotaAccounts) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = base_options(3);
    opt.journal_path = journal("admission.wal");

    ServeOptions sopt;
    sopt.meter.quota_units = 2.5 * kQuoteUnits;
    sopt.meter.half_life_epochs = 4.0;
    ServeEngine engine(pool, tm, opt, sopt);
    engine.attach(opt);
    sim::EpochRuntime(pool, tm, opt).run();

    // Quota of two and a half quotes: the third quote tips over.
    EXPECT_EQ(engine.quote("greedy", "A").code, ServeError::kOk);
    EXPECT_EQ(engine.quote("greedy", "A").code, ServeError::kOk);
    EXPECT_EQ(engine.quote("greedy", "A").code, ServeError::kOverQuota);
    EXPECT_GE(engine.meter().rejected(), 1u);
    // Other accounts are unaffected (per-account quotas).
    EXPECT_EQ(engine.quote("patient", "A").code, ServeError::kOk);
    // The rejected account was billed only for admitted queries.
    EXPECT_EQ(engine.meter().billed("greedy"),
              sopt.meter.price_per_unit.scaled(2.0 * kQuoteUnits));

    // Rollover reconciliation balances the serve-side ledger.
    const auto rec = engine.meter().reconcile(3);
    EXPECT_TRUE(rec.balanced);
    EXPECT_GT(rec.flushed, Money{});
}

TEST_F(ServeEngineTest, RestartedDaemonRepublishesFromTheJournal) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = base_options(3);
    opt.journal_path = journal("restart.wal");

    // First process: run to completion with a daemon attached.
    {
        ServeEngine engine(pool, tm, opt, {});
        engine.attach(opt);
        sim::EpochRuntime(pool, tm, opt).run();
        ASSERT_NE(engine.current(), nullptr);
        EXPECT_FALSE(engine.current()->replayed);
    }

    // Restarted process: recovery republishes the newest epoch with
    // replayed=true, so a fresh daemon serves without re-running.
    ServeEngine engine(pool, tm, opt, {});
    engine.attach(opt);
    const sim::RuntimeOutcome out = sim::EpochRuntime(pool, tm, opt).run();
    EXPECT_EQ(out.replayed_epochs, 3u);
    const auto view = engine.current();
    ASSERT_NE(view, nullptr);
    EXPECT_TRUE(view->replayed);
    EXPECT_EQ(view->epoch, 2u);
    EXPECT_EQ(view->completed_epochs, 3u);
    EXPECT_EQ(engine.quote("acct", "A").code, ServeError::kOk);
}

}  // namespace
}  // namespace poc::serve
