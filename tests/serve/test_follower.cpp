// The replicated read tier end to end: followers tailing a live
// writer produce EpochViews bit-identical to the leader's at every
// epoch; torn tails are retried, compaction swaps re-bootstrap, bit
// flips stall structurally instead of serving garbage; bounded
// staleness returns kStaleView exactly when lag exceeds the bound;
// and the replica supervisor survives crash/corrupt chaos traces.
#include "serve/follower.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>

#include "helpers/market.hpp"
#include "util/fault_injection.hpp"
#include "util/journal.hpp"
#include "util/state_history.hpp"

namespace poc::serve {
namespace {

using test::ParallelLinksFixture;

class FollowerTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("poc_follower_test_" + std::string(info->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string journal(const std::string& name) const { return (dir_ / name).string(); }

    sim::RuntimeOptions leader_options(std::size_t epochs, const std::string& name) const {
        sim::RuntimeOptions opt;
        opt.epochs = epochs;
        opt.seed = 7;
        opt.demand_jitter = 0.05;
        opt.journal_path = journal(name);
        return opt;
    }

    /// Run the leader to completion, capturing the bit-exact encoding
    /// of its published view at every epoch.
    sim::RuntimeOutcome run_leader(const market::OfferPool& pool,
                                   const net::TrafficMatrix& tm, sim::RuntimeOptions opt,
                                   std::map<std::uint64_t, std::string>* views = nullptr) {
        if (views != nullptr) {
            opt.on_epoch_commit = [&pool, views](const sim::EpochCommit& commit) {
                (*views)[commit.completed_epochs] =
                    encode_epoch_view(*build_epoch_view(pool.graph(), commit));
            };
        }
        return sim::EpochRuntime(pool, tm, opt).run();
    }

    /// Poll the follower until `target` epochs are applied (or a poll
    /// stops progressing `stall_limit` times in a row), recording the
    /// encoding of every distinct epoch its hub publishes.
    void drain(Follower& f, std::uint64_t target,
               std::map<std::uint64_t, std::string>& views,
               std::size_t stall_limit = 64) {
        std::size_t stalls = 0;
        while (f.applied_epochs() < target && stalls < stall_limit) {
            const FollowerPoll p = f.poll();
            stalls = p.progressed ? 0 : stalls + 1;
            const auto v = f.hub()->current();
            if (v) views.emplace(v->completed_epochs, encode_epoch_view(*v));
        }
    }

    /// Every view the follower served must be byte-identical to the
    /// leader's view of the same epoch (excluding the `replayed`
    /// provenance bit, which encode_epoch_view omits by design).
    void expect_subset_identical(const std::map<std::uint64_t, std::string>& follower,
                                 const std::map<std::uint64_t, std::string>& leader,
                                 const std::string& context) {
        ASSERT_FALSE(follower.empty()) << context;
        for (const auto& [epochs, bytes] : follower) {
            const auto want = leader.find(epochs);
            ASSERT_NE(want, leader.end()) << context << ": follower served epoch count "
                                          << epochs << " the leader never committed";
            EXPECT_EQ(bytes, want->second) << context << " (completed=" << epochs << ")";
        }
    }

    ParallelLinksFixture fx_;
    std::filesystem::path dir_;
};

TEST_F(FollowerTest, TailsACompletedJournalBitIdenticalAtEveryEpoch) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(5, "static.wal");
    std::map<std::uint64_t, std::string> leader;
    run_leader(pool, tm, opt, &leader);
    ASSERT_EQ(leader.size(), 5u);

    // max_records_per_poll=1 steps every record boundary, so every
    // epoch's publication is observable between polls.
    FollowerOptions fopt;
    fopt.runtime = opt;
    fopt.max_records_per_poll = 1;
    Follower f(pool, tm, fopt);
    EXPECT_EQ(f.status(), FollowerStatus::kCold);

    std::map<std::uint64_t, std::string> follower;
    drain(f, 5, follower);

    EXPECT_EQ(f.applied_epochs(), 5u);
    EXPECT_EQ(f.lag_epochs(), 0u);
    EXPECT_EQ(f.status(), FollowerStatus::kTailing);
    EXPECT_EQ(follower.size(), 5u);
    expect_subset_identical(follower, leader, "static journal");
    EXPECT_EQ(f.stats().publish_rejects, 0u);

    // The cursor consumed the whole valid prefix.
    util::Journal::ScanResult scan;
    util::Journal::scan_file(opt.journal_path, scan);
    EXPECT_EQ(f.cursor_bytes(), scan.valid_end);
    EXPECT_EQ(f.cursor_records(), scan.records.size());
}

TEST_F(FollowerTest, NFollowersTailALiveWriterBitIdentically) {
    // The tentpole property: followers tailing a *live* writer — with
    // snapshots and compaction rewriting the journal underneath them —
    // serve only views byte-identical to what the leader committed.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(8, "live.wal");
    opt.snapshot_interval = 2;  // compact-while-tailing
    std::map<std::uint64_t, std::string> leader;

    constexpr std::size_t kFollowers = 3;
    std::vector<std::map<std::uint64_t, std::string>> seen(kFollowers);
    std::vector<std::uint64_t> rebootstraps(kFollowers, 0);
    std::vector<std::thread> tails;
    for (std::size_t i = 0; i < kFollowers; ++i) {
        tails.emplace_back([&, i] {
            FollowerOptions fopt;
            fopt.runtime = opt;
            fopt.max_records_per_poll = 1;
            Follower f(pool, tm, fopt);
            std::size_t idle = 0;
            // Generous idle budget: the writer runs concurrently and
            // may pause (snapshot I/O) between appends.
            while (f.applied_epochs() < 8 && idle < 4000) {
                const FollowerPoll p = f.poll();
                idle = p.progressed ? 0 : idle + 1;
                if (!p.progressed) {
                    std::this_thread::sleep_for(std::chrono::microseconds(200));
                }
                const auto v = f.hub()->current();
                if (v) seen[i].emplace(v->completed_epochs, encode_epoch_view(*v));
            }
            rebootstraps[i] = f.stats().rebootstraps;
        });
    }

    run_leader(pool, tm, opt, &leader);
    for (std::thread& t : tails) t.join();
    ASSERT_EQ(leader.size(), 8u);

    for (std::size_t i = 0; i < kFollowers; ++i) {
        const std::string ctx = "follower " + std::to_string(i);
        expect_subset_identical(seen[i], leader, ctx);
        // Every follower converged to the final epoch.
        ASSERT_TRUE(seen[i].count(8)) << ctx;
        // Bootstrapping happened at least once (cold start counts).
        EXPECT_GE(rebootstraps[i], 1u) << ctx;
    }
}

TEST_F(FollowerTest, TornTailAtEveryRecordBoundaryIsRetriedNotTruncated) {
    // Exhaustive torn-tail matrix: for every record boundary, a
    // journal cut 3 bytes into the next frame must (a) apply exactly
    // the complete prefix, (b) report kTornTail without throwing or
    // truncating, and (c) extend seamlessly once the "write" finishes.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(4, "torn-src.wal");
    std::map<std::uint64_t, std::string> leader;
    run_leader(pool, tm, opt, &leader);

    const std::string full = util::FaultyFile::slurp(opt.journal_path);
    util::Journal::ScanResult scan;
    util::Journal::scan_file(opt.journal_path, scan);
    std::vector<std::uint64_t> boundaries{scan.header_end};
    for (const util::JournalRecord& r : scan.records) {
        boundaries.push_back(boundaries.back() + util::kJournalFrameBytes + r.payload.size());
    }
    ASSERT_EQ(boundaries.back(), scan.valid_end);

    for (std::size_t i = 0; i + 1 < boundaries.size(); ++i) {
        const std::string torn_path = journal("torn-" + std::to_string(i) + ".wal");
        util::FaultyFile::spit(torn_path, full);
        util::FaultyFile::tear_at(torn_path, boundaries[i] + 3);

        sim::RuntimeOptions ropt = opt;
        ropt.journal_path = torn_path;
        FollowerOptions fopt;
        fopt.runtime = ropt;
        Follower f(pool, tm, fopt);

        const FollowerPoll p = f.poll();
        EXPECT_TRUE(p.torn_tail) << "boundary " << i;
        EXPECT_EQ(p.status, FollowerStatus::kTornTail) << "boundary " << i;
        EXPECT_EQ(f.cursor_records(), i) << "boundary " << i;
        EXPECT_EQ(f.cursor_bytes(), boundaries[i]) << "boundary " << i;
        // Read-only: the torn bytes are still on disk.
        EXPECT_EQ(util::FaultyFile::size(torn_path), boundaries[i] + 3)
            << "boundary " << i;

        // The writer finishes its append: same generation, the tail
        // extends, the follower completes bit-identically.
        util::FaultyFile::spit(torn_path, full);
        std::map<std::uint64_t, std::string> seen;
        drain(f, 4, seen);
        EXPECT_EQ(f.applied_epochs(), 4u) << "boundary " << i;
        expect_subset_identical(seen, leader, "boundary " + std::to_string(i));
    }
}

TEST_F(FollowerTest, BitFlipInEveryRecordStallsStructurallyThenRecovers) {
    // Corrupt-tail matrix: a bit flip inside record i must stop the
    // follower at record i (never a wrong view), escalate from
    // kTornTail to kCorrupt once the stall budget (and a snapshot
    // re-ground) is burned, and clear the moment the damage does.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(3, "flip-src.wal");
    std::map<std::uint64_t, std::string> leader;
    run_leader(pool, tm, opt, &leader);

    const std::string full = util::FaultyFile::slurp(opt.journal_path);
    util::Journal::ScanResult scan;
    util::Journal::scan_file(opt.journal_path, scan);
    std::vector<std::uint64_t> boundaries{scan.header_end};
    for (const util::JournalRecord& r : scan.records) {
        boundaries.push_back(boundaries.back() + util::kJournalFrameBytes + r.payload.size());
    }

    for (std::size_t i = 0; i < scan.records.size(); ++i) {
        const std::string path = journal("flip-" + std::to_string(i) + ".wal");
        util::FaultyFile::spit(path, full);
        // Flip a payload bit of record i.
        const std::uint64_t victim =
            boundaries[i] + util::kJournalFrameBytes + scan.records[i].payload.size() / 2;
        util::FaultyFile::flip_bit(path, victim, 5);

        sim::RuntimeOptions ropt = opt;
        ropt.journal_path = path;
        FollowerOptions fopt;
        fopt.runtime = ropt;
        fopt.stall_poll_budget = 2;  // fast escalation for the test
        Follower f(pool, tm, fopt);

        // First poll applies the clean prefix and reports a torn tail
        // (a flip is indistinguishable from an in-progress write).
        FollowerPoll p = f.poll();
        EXPECT_EQ(f.cursor_records(), i) << "record " << i;
        EXPECT_TRUE(p.torn_tail) << "record " << i;
        // No progress past the damage: the stall budget escalates to
        // kCorrupt (after one futile snapshot re-ground).
        for (int n = 0; n < 8 && f.status() != FollowerStatus::kCorrupt; ++n) {
            p = f.poll();
        }
        EXPECT_EQ(f.status(), FollowerStatus::kCorrupt) << "record " << i;
        // It kept serving its last proven view — never a wrong one.
        const auto held = f.hub()->current();
        if (held) {
            EXPECT_EQ(encode_epoch_view(*held), leader.at(held->completed_epochs))
                << "record " << i;
        }

        // The damage clears (a leader rewrite from clean state): the
        // follower converges bit-identically.
        util::FaultyFile::flip_bit(path, victim, 5);
        std::map<std::uint64_t, std::string> seen;
        drain(f, 3, seen);
        EXPECT_EQ(f.applied_epochs(), 3u) << "record " << i;
        EXPECT_EQ(f.status(), FollowerStatus::kTailing) << "record " << i;
        expect_subset_identical(seen, leader, "record " + std::to_string(i));
    }
}

TEST_F(FollowerTest, CompactionSwapTriggersRebootstrapFromSnapshot) {
    // Stage the compaction race deterministically: build both journal
    // generations of the *same* 8-epoch run (compaction is an engine
    // knob outside the configuration fingerprint), let the follower
    // tail the pre-compaction generation mid-way, then rename the
    // compacted generation over the path — exactly what the leader's
    // Journal::rewrite does underneath a live follower.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(8, "swap.wal");
    opt.snapshot_interval = 2;
    opt.snapshot_keep = 8;  // retain every generation for the staging
    std::map<std::uint64_t, std::string> leader;
    run_leader(pool, tm, opt, &leader);
    ASSERT_EQ(leader.size(), 8u);
    const std::string compacted = util::FaultyFile::slurp(opt.journal_path);

    // Pre-compaction generation of the identical run.
    sim::RuntimeOptions full = opt;
    full.journal_path = journal("full.wal");
    full.compact_after_snapshot = false;
    run_leader(pool, tm, full);
    util::FaultyFile::spit(opt.journal_path, util::FaultyFile::slurp(full.journal_path));

    // Hide the snapshots past epoch 4, so the follower grounds at 4
    // and tails the journal suffix (mid-catch-up when the swap lands).
    const util::SnapshotStore store(opt.journal_path, 8);
    for (const std::uint64_t n : {6u, 8u}) {
        std::filesystem::rename(store.path_for(n),
                                dir_ / ("stash-" + std::to_string(n)));
    }

    FollowerOptions fopt;
    fopt.runtime = opt;
    fopt.max_records_per_poll = 1;
    Follower f(pool, tm, fopt);
    std::map<std::uint64_t, std::string> seen;
    drain(f, 5, seen);
    ASSERT_EQ(f.applied_epochs(), 5u);
    ASSERT_GT(f.lag_epochs(), 0u);  // genuinely mid-tail
    const std::uint64_t bootstraps_before = f.stats().rebootstraps;

    // The leader compacts: new generation renamed over the path, the
    // newer snapshots reappear (install order is snapshot-then-compact).
    for (const std::uint64_t n : {6u, 8u}) {
        std::filesystem::rename(dir_ / ("stash-" + std::to_string(n)),
                                store.path_for(n));
    }
    const std::string incoming = journal("swap.wal.incoming");
    util::FaultyFile::spit(incoming, compacted);
    std::filesystem::rename(incoming, opt.journal_path);

    bool rebootstrapped = false;
    std::size_t stalls = 0;
    while (f.applied_epochs() < 8 && stalls < 64) {
        const FollowerPoll p = f.poll();
        rebootstrapped = rebootstrapped || p.rebootstrapped;
        stalls = p.progressed ? 0 : stalls + 1;
        const auto v = f.hub()->current();
        if (v) seen.emplace(v->completed_epochs, encode_epoch_view(*v));
    }

    EXPECT_TRUE(rebootstrapped);
    EXPECT_GT(f.stats().rebootstraps, bootstraps_before);
    EXPECT_EQ(f.applied_epochs(), 8u);
    expect_subset_identical(seen, leader, "compaction swap");
    // The hub never went backwards through the swap.
    const auto v = f.hub()->current();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->completed_epochs, 8u);
}

TEST_F(FollowerTest, StaleViewIsReturnedExactlyWhenLagExceedsTheBound) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(6, "stale.wal");
    run_leader(pool, tm, opt);

    FollowerOptions fopt;
    fopt.runtime = opt;
    fopt.max_records_per_poll = 1;
    Follower f(pool, tm, fopt);

    // Apply exactly 3 of 6 epochs; the scan has already proven all 6.
    std::size_t guard = 0;
    while (f.applied_epochs() < 3 && ++guard < 256) f.poll();
    ASSERT_EQ(f.applied_epochs(), 3u);
    ASSERT_EQ(f.known_epochs(), 6u);
    ASSERT_EQ(f.lag_epochs(), 3u);

    // lag == 3: bounds >= 3 answer, bounds < 3 refuse. Exactness at
    // the boundary on every query class.
    EXPECT_EQ(f.quote("A", 3).code, ServeError::kOk);
    EXPECT_EQ(f.quote("A", 2).code, ServeError::kStaleView);
    EXPECT_EQ(f.path(net::NodeId{0u}, net::NodeId{1u}, 3).code, ServeError::kOk);
    EXPECT_EQ(f.path(net::NodeId{0u}, net::NodeId{1u}, 2).code, ServeError::kStaleView);
    EXPECT_EQ(f.sla(3).code, ServeError::kOk);
    EXPECT_EQ(f.sla(2).code, ServeError::kStaleView);
    EXPECT_EQ(f.sla(0).code, ServeError::kStaleView);
    EXPECT_EQ(f.quote("A").code, ServeError::kOk);  // kNoLagBound
    EXPECT_EQ(f.stats().stale_rejects, 4u);

    // Graceful degradation: a stale replica still proves point-in-time
    // epochs it has history for.
    const auto past = f.at_epoch(2);
    ASSERT_EQ(past.code, ServeError::kOk);
    EXPECT_EQ(past.view->completed_epochs, 2u);
    EXPECT_EQ(f.at_epoch(0).code, ServeError::kHistoryUnavailable);
    EXPECT_EQ(f.at_epoch(99).code, ServeError::kHistoryUnavailable);

    // Caught up: lag 0, even max_lag_epochs=0 answers.
    std::map<std::uint64_t, std::string> seen;
    drain(f, 6, seen);
    EXPECT_EQ(f.lag_epochs(), 0u);
    EXPECT_EQ(f.quote("A", 0).code, ServeError::kOk);
    EXPECT_EQ(f.sla(0).code, ServeError::kOk);
}

TEST_F(FollowerTest, ForeignJournalIsRefusedAndMissingJournalIsWaitedOn) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);

    // Missing journal: wait, do not throw.
    sim::RuntimeOptions absent = leader_options(3, "never-written.wal");
    FollowerOptions fopt;
    fopt.runtime = absent;
    Follower waiting(pool, tm, fopt);
    const FollowerPoll p = waiting.poll();
    EXPECT_EQ(p.status, FollowerStatus::kWaitingForJournal);
    EXPECT_FALSE(p.progressed);
    EXPECT_EQ(waiting.applied_epochs(), 0u);
    EXPECT_EQ(waiting.quote("A").code, ServeError::kNotServing);

    // Foreign journal (different seed -> different fingerprint):
    // refused, never applied.
    sim::RuntimeOptions theirs = leader_options(3, "foreign.wal");
    run_leader(pool, tm, theirs);
    sim::RuntimeOptions mine = theirs;
    mine.seed = 999;
    FollowerOptions gopt;
    gopt.runtime = mine;
    Follower foreign(pool, tm, gopt);
    EXPECT_EQ(foreign.poll().status, FollowerStatus::kForeign);
    EXPECT_EQ(foreign.applied_epochs(), 0u);
    EXPECT_EQ(foreign.hub()->current(), nullptr);
}

TEST_F(FollowerTest, FollowerNeverSweepsTheWritersTempFiles) {
    // Temp-file ownership is writer-only: a follower bootstrapping
    // next to a leader mid-snapshot-install must leave the leader's
    // `.tmp` (and old snapshot generations) untouched.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(4, "temps.wal");
    opt.snapshot_interval = 2;
    opt.compact_after_snapshot = false;
    run_leader(pool, tm, opt);

    // Plant what looks exactly like a stale install temp — from the
    // follower's seat it could equally be the writer's in-flight
    // rename source.
    const util::SnapshotStore writer_store(opt.journal_path, 2);
    const std::string temp_victim = writer_store.path_for(4);
    util::FaultyFile::make_stale_temp(temp_victim, "half-written snapshot bytes");
    const std::string temp_path = temp_victim + ".tmp";
    ASSERT_TRUE(std::filesystem::exists(temp_path));

    FollowerOptions fopt;
    fopt.runtime = opt;
    Follower f(pool, tm, fopt);
    std::map<std::uint64_t, std::string> seen;
    drain(f, 4, seen);
    EXPECT_EQ(f.applied_epochs(), 4u);

    // Bootstrap + tail + queries left the writer's artifacts alone.
    EXPECT_TRUE(std::filesystem::exists(temp_path));
    EXPECT_EQ(util::FaultyFile::slurp(temp_path), "half-written snapshot bytes");
    EXPECT_EQ(writer_store.list().size(), 2u);  // snapshots at 2 and 4 intact
}

TEST_F(FollowerTest, SupervisorRestartsCrashedFollowersIntoTheSharedHub) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(6, "crash.wal");
    std::map<std::uint64_t, std::string> leader;
    run_leader(pool, tm, opt, &leader);

    std::vector<sim::Fault> trace;
    trace.push_back({.kind = sim::FaultKind::kFollowerCrash, .start_epoch = 2});
    trace.push_back({.kind = sim::FaultKind::kFollowerCrash, .start_epoch = 4});
    // Leader-side kinds in the same trace are ignored by the replica
    // supervisor.
    trace.push_back({.kind = sim::FaultKind::kLinkCut, .start_epoch = 1});

    FollowerOptions fopt;
    fopt.runtime = opt;
    const FollowerRunResult res = run_follower_with_recovery(pool, tm, fopt, 6, trace);

    EXPECT_EQ(res.restarts, 2u);
    EXPECT_EQ(res.applied_epochs, 6u);
    EXPECT_GE(res.rebootstraps, 3u);  // one cold bootstrap per incarnation
    ASSERT_NE(res.final_view, nullptr);
    EXPECT_EQ(res.final_view->completed_epochs, 6u);
    EXPECT_EQ(encode_epoch_view(*res.final_view), leader.at(6));
    // The shared hub carried views across incarnations.
    ASSERT_NE(res.hub, nullptr);
    EXPECT_EQ(res.hub->current(), res.final_view);
}

TEST_F(FollowerTest, SupervisorSurvivesTailCorruptionUnderALiveCompactingWriter) {
    // kFollowerTailCorrupt flips a bit in the suffix the replica has
    // yet to consume. With a live writer compacting every 2 epochs,
    // the follower must stall on the damage (never serve it) until a
    // compaction rewrites the journal from clean state, then converge
    // bit-identically.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(10, "livecorrupt.wal");
    opt.snapshot_interval = 2;
    opt.restart.max_attempts = 64;  // wide stall window: real I/O pacing
    std::map<std::uint64_t, std::string> leader;

    std::vector<sim::Fault> trace;
    trace.push_back({.kind = sim::FaultKind::kFollowerTailCorrupt, .start_epoch = 2});

    FollowerOptions fopt;
    fopt.runtime = opt;
    FollowerRunResult res;
    std::thread supervisor(
        [&] { res = run_follower_with_recovery(pool, tm, fopt, 10, trace); });
    run_leader(pool, tm, opt, &leader);
    supervisor.join();

    EXPECT_EQ(res.applied_epochs, 10u);
    EXPECT_EQ(res.restarts, 0u);
    ASSERT_NE(res.final_view, nullptr);
    EXPECT_EQ(res.final_view->completed_epochs, 10u);
    EXPECT_EQ(encode_epoch_view(*res.final_view), leader.at(10));
}

TEST_F(FollowerTest, SupervisorExhaustsOnAJournalThatNeverAppears) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(3, "ghost.wal");
    opt.restart.max_attempts = 2;

    FollowerOptions fopt;
    fopt.runtime = opt;
    fopt.stall_poll_budget = 2;  // 2 x 2 = 4 no-progress polls, then give up
    EXPECT_THROW(run_follower_with_recovery(pool, tm, fopt, 3, {}),
                 sim::RecoveryExhausted);
}

TEST_F(FollowerTest, TailUntilPacesRetriesAndFailsStructurallyOnCorruption) {
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(4, "tailuntil.wal");
    std::map<std::uint64_t, std::string> leader;
    run_leader(pool, tm, opt, &leader);

    // Happy path: catches up and returns.
    FollowerOptions fopt;
    fopt.runtime = opt;
    Follower f(pool, tm, fopt);
    f.tail_until(4);
    EXPECT_EQ(f.applied_epochs(), 4u);
    EXPECT_EQ(encode_epoch_view(*f.current()), leader.at(4));

    // Structural failure: a bit flip that nothing ever clears burns
    // the whole stall window and throws RetryExhausted.
    const std::string damaged = journal("tailuntil-damaged.wal");
    util::FaultyFile::spit(damaged, util::FaultyFile::slurp(opt.journal_path));
    util::Journal::ScanResult scan;
    util::Journal::scan_file(damaged, scan);
    util::FaultyFile::flip_bit(damaged, scan.header_end + util::kJournalFrameBytes + 1, 2);

    sim::RuntimeOptions dopt = opt;
    dopt.journal_path = damaged;
    FollowerOptions gopt;
    gopt.runtime = dopt;
    gopt.stall_poll_budget = 2;
    gopt.tail_backoff.max_attempts = 6;
    gopt.tail_backoff.base_backoff_ms = 0.1;
    gopt.tail_backoff.max_backoff_ms = 0.5;
    Follower stuck(pool, tm, gopt);
    EXPECT_THROW(stuck.tail_until(4), util::RetryExhausted);
    EXPECT_EQ(stuck.status(), FollowerStatus::kCorrupt);
    EXPECT_EQ(stuck.applied_epochs(), 0u);  // record 0 damaged: nothing proven
}

TEST_F(FollowerTest, ConcurrentQueriesNeverSeeATornViewWhileTailingLive) {
    // The TSan target: one live writer, one follower tail thread, and
    // query threads hammering the follower's hub + staleness-checked
    // queries concurrently. Every observed view must be internally
    // consistent and epoch-monotone.
    const market::OfferPool pool = fx_.pool();
    const net::TrafficMatrix tm = fx_.demand(5.0);
    sim::RuntimeOptions opt = leader_options(6, "tsan.wal");
    opt.snapshot_interval = 2;

    FollowerOptions fopt;
    fopt.runtime = opt;
    fopt.tail_backoff.max_attempts = 64;  // outlast writer startup
    Follower f(pool, tm, fopt);

    std::atomic<bool> done{false};
    std::atomic<std::uint64_t> torn{0};
    std::atomic<std::uint64_t> reads{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 2; ++t) {
        readers.emplace_back([&] {
            std::uint64_t last_epochs = 0;
            do {
                const auto view = f.hub()->current();
                if (view) {
                    if (view->epoch + 1 != view->completed_epochs ||
                        view->completed_epochs < last_epochs ||
                        view->trees.size() != pool.graph().node_count() ||
                        view->record.epoch != view->epoch) {
                        torn.fetch_add(1);
                    }
                    last_epochs = view->completed_epochs;
                }
                const auto q = f.quote("A");
                if (view && q.code != ServeError::kOk &&
                    q.code != ServeError::kStaleView) {
                    torn.fetch_add(1);
                }
                f.sla(2);
                f.path(net::NodeId{0u}, net::NodeId{1u});
                (void)f.lag_epochs();
                (void)f.status();
                reads.fetch_add(1);
            } while (!done.load(std::memory_order_acquire));
        });
    }

    std::thread tail([&] { f.tail_until(6); });
    run_leader(pool, tm, opt);
    tail.join();
    done.store(true, std::memory_order_release);
    for (std::thread& r : readers) r.join();

    EXPECT_EQ(f.applied_epochs(), 6u);
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_GT(reads.load(), 0u);
    const auto v = f.current();
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(v->completed_epochs, 6u);
}

}  // namespace
}  // namespace poc::serve
