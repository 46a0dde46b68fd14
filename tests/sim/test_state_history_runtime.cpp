// State-history runtime properties (DESIGN.md §4c): snapshot cadence
// and pruning, byte-stable state serialization, snapshot-grounded
// recovery equal to linear replay across engine configs, crashes
// during snapshot/compaction, disk-fault injection (bit flips, torn
// writes, duplicated frames, stale temps) over journal and snapshot
// files, the supervisor's restart budget, and restart cost staying
// O(snapshot interval) instead of O(history). Every reader of the
// history — recovery, point-in-time queries, followers — falls back
// past a snapshot generation that does not decode.
#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "helpers/market.hpp"
#include "serve/epoch_view.hpp"
#include "serve/follower.hpp"
#include "sim/replay.hpp"
#include "util/fault_injection.hpp"

namespace poc::sim {
namespace {

using test::ParallelLinksFixture;

/// Byte-exact comparison key for an optional auction result, with the
/// work-accounting diagnostics scrubbed (they vary across engine
/// configs; bit-identity covers the economic outcome — see
/// test_runtime.cpp).
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

void expect_identical(const RuntimeOutcome& got, const RuntimeOutcome& want,
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

/// Test sink capturing every emitted snapshot payload in memory.
struct CapturingSink final : util::SnapshotSink {
    std::vector<std::pair<std::uint64_t, std::string>> emitted;
    void emit(std::uint64_t completed_epochs, std::string_view,
              std::string_view payload) override {
        emitted.emplace_back(completed_epochs, std::string(payload));
    }
};

class StateHistoryRuntimeTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("poc_state_history_rt_" + std::string(info->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string journal(const std::string& name) const { return (dir_ / name).string(); }

    RuntimeOptions base_options() const {
        RuntimeOptions opt;
        opt.epochs = 3;
        opt.seed = 7;
        opt.demand_jitter = 0.05;
        opt.request.constraint = market::ConstraintKind::kSingleFailure;
        return opt;
    }

    ParallelLinksFixture fx_;
    std::filesystem::path dir_;
};

TEST_F(StateHistoryRuntimeTest, SnapshotCadencePruningAndCompaction) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 6;
    const RuntimeOutcome plain = EpochRuntime(pool, tm, opt).run();

    // Journal-only control: same run, durability on, snapshots off.
    RuntimeOptions control = opt;
    control.journal_path = journal("wal_control");
    EpochRuntime(pool, tm, control).run();

    RuntimeOptions snap = opt;
    snap.journal_path = journal("wal");
    snap.snapshot_interval = 2;
    snap.snapshot_keep = 2;
    const RuntimeOutcome out = EpochRuntime(pool, tm, snap).run();
    expect_identical(out, plain, "snapshots on vs off");
    EXPECT_EQ(out.snapshots_written, 3u);  // completed = 2, 4, 6
    EXPECT_EQ(out.compactions, 3u);

    // keep=2 prunes the oldest generation; the newest two survive.
    const util::SnapshotStore store(snap.journal_path, snap.snapshot_keep);
    const auto snaps = store.list();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].completed_epochs, 4u);
    EXPECT_EQ(snaps[1].completed_epochs, 6u);

    // The final compaction (at the epoch-6 boundary) leaves a header-
    // only journal; the journal-only control keeps the whole history.
    EXPECT_LT(std::filesystem::file_size(snap.journal_path),
              std::filesystem::file_size(control.journal_path) / 4);

    // Re-running grounds on the newest snapshot: no journal replay, no
    // recomputation, same bits.
    const RuntimeOutcome again = EpochRuntime(pool, tm, snap).run();
    expect_identical(again, plain, "pure snapshot resume");
    EXPECT_TRUE(again.resumed_from_snapshot);
    EXPECT_EQ(again.snapshot_epochs, 6u);
    EXPECT_EQ(again.replayed_records, 0u);
    EXPECT_EQ(again.retry.calls, 0u) << "snapshot resume must not re-clear";
}

TEST_F(StateHistoryRuntimeTest, StateCodecIsByteStable) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    CapturingSink sink;
    opt.snapshot_sink = &sink;
    opt.snapshot_interval = 1;
    opt.compact_after_snapshot = false;  // the sink is not durable
    const RuntimeOutcome out = EpochRuntime(pool, tm, opt).run();

    ASSERT_EQ(sink.emitted.size(), 3u);
    for (const auto& [completed, payload] : sink.emitted) {
        // serialize -> deserialize -> serialize is byte-stable.
        const RuntimeState st = decode_runtime_state(payload);
        EXPECT_EQ(st.epochs.size(), completed);
        EXPECT_EQ(encode_runtime_state(st), payload)
            << "payload for " << completed << " completed epochs";
    }

    // The final payload is exactly the run's end state.
    const RuntimeState last = decode_runtime_state(sink.emitted.back().second);
    EXPECT_EQ(last.epochs, out.epochs);
    EXPECT_EQ(last.ledger.transfers(), out.ledger.transfers());
    EXPECT_TRUE(last.rng == out.final_rng);
    ASSERT_EQ(last.auctions.size(), out.auctions.size());
    for (std::size_t i = 0; i < last.auctions.size(); ++i) {
        EXPECT_EQ(auction_bytes(last.auctions[i]), auction_bytes(out.auctions[i]));
    }

    // Garbage and version drift are refused, not misread.
    EXPECT_THROW(decode_runtime_state("not a runtime state"), util::JournalError);
    std::string drift = sink.emitted.back().second;
    drift[0] = static_cast<char>(drift[0] + 1);  // version field
    EXPECT_THROW(decode_runtime_state(drift), util::JournalError);
}

// Length prefixes are read from disk: an absurd count must surface as
// a structured JournalError (which recovery and followers catch), never
// as std::length_error from sizing a vector.
constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 61;

TEST(RuntimeStateCodec, HugeEpochCountIsAJournalError) {
    util::BinaryWriter w;
    w.u64(1);           // state version
    w.u64(kHugeCount);  // epochs
    EXPECT_THROW(decode_runtime_state(w.bytes()), util::JournalError);
}

TEST(ReplayCursorCodec, HugeProvisionLinkCountIsAJournalError) {
    util::BinaryWriter w;
    w.u64(0);           // epoch
    w.u64(kHugeCount);  // selected links
    ReplayCursor cursor;
    EXPECT_THROW(cursor.apply({kRecProvision, w.bytes(), 0}), util::JournalError);
}

TEST(ReplayCursorCodec, HugeSettlementCountIsAJournalError) {
    util::BinaryWriter w;
    w.u64(0);           // epoch
    w.u64(kHugeCount);  // transfers
    ReplayCursor cursor;
    EXPECT_THROW(cursor.apply({kRecSettlement, w.bytes(), 0}), util::JournalError);
}

// Satellite (c): resuming from a snapshot equals linear replay — and a
// from-scratch run — across all four engine configs (threads x memo).
TEST_F(StateHistoryRuntimeTest, SnapshotResumeMatchesLinearReplayAcrossEngineConfigs) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 4;
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    const struct {
        std::size_t threads;
        bool memo;
    } configs[] = {{1, false}, {1, true}, {8, false}, {8, true}};
    int n = 0;
    for (const auto& cfg : configs) {
        RuntimeOptions snap = opt;
        snap.request.auction.threads = cfg.threads;
        snap.use_delta_reclear = cfg.memo;
        snap.journal_path = journal("wal" + std::to_string(n++));
        snap.snapshot_interval = 2;
        Fault crash;
        crash.kind = FaultKind::kCrash;
        crash.start_epoch = 2;
        crash.crash_stage = 2;  // kFlowSim
        const RuntimeOutcome out = run_with_recovery(pool, tm, snap, {crash});
        const std::string context = "threads " + std::to_string(cfg.threads) +
                                    (cfg.memo ? " memo" : " nomemo");
        expect_identical(out, baseline, context);
        EXPECT_TRUE(out.resumed_from_snapshot) << context;
        EXPECT_EQ(out.snapshot_epochs, 2u) << context;
        EXPECT_EQ(out.restarts, 1u) << context;
    }
}

TEST_F(StateHistoryRuntimeTest, CrashMatrixWithSnapshotsOnReplaysBitIdentical) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 4;
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    int n = 0;
    for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
        for (std::uint32_t stage = 0; stage < kStageCount; ++stage) {
            RuntimeOptions snap = opt;
            snap.journal_path = journal("wal" + std::to_string(n++));
            snap.snapshot_interval = 2;
            Fault crash;
            crash.kind = FaultKind::kCrash;
            crash.start_epoch = epoch;
            crash.crash_stage = stage;
            const RuntimeOutcome out = run_with_recovery(pool, tm, snap, {crash});
            expect_identical(out, baseline,
                             "crash at epoch " + std::to_string(epoch) + " stage " +
                                 stage_name(static_cast<Stage>(stage)));
        }
    }
}

TEST_F(StateHistoryRuntimeTest, CrashDuringSnapshotWriteAndCompactionSurvives) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 4;
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    // Die mid-snapshot at the first boundary (state serialized,
    // install not durable) and mid-compaction at the second (snapshot
    // durable, journal still holding covered records).
    RuntimeOptions snap = opt;
    snap.journal_path = journal("wal");
    snap.snapshot_interval = 2;
    Fault in_snapshot;
    in_snapshot.kind = FaultKind::kCrash;
    in_snapshot.start_epoch = 2;  // completed-epoch count at the boundary
    in_snapshot.crash_stage = kCrashStageSnapshot;
    Fault in_compaction;
    in_compaction.kind = FaultKind::kCrash;
    in_compaction.start_epoch = 4;
    in_compaction.crash_stage = kCrashStageCompaction;
    const RuntimeOutcome out =
        run_with_recovery(pool, tm, snap, {in_snapshot, in_compaction});
    expect_identical(out, baseline, "crashes during snapshot write and compaction");
    EXPECT_EQ(out.restarts, 2u);
    // The compaction crash left the epoch-4 snapshot installed: the
    // final restart grounds on it (and performs the skipped
    // compaction itself).
    EXPECT_TRUE(out.resumed_from_snapshot);
    EXPECT_EQ(out.snapshot_epochs, 4u);
    EXPECT_GE(out.compactions, 1u);
}

TEST_F(StateHistoryRuntimeTest, SnapshotCorruptAndTornWriteFaultsRecoverBitIdentical) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 4;
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    // kSnapshotCorrupt: the crash also flips a bit in the newest
    // snapshot; recovery must fall back (older snapshot or journal or
    // recompute). kTornWrite: the crash also tears the journal's tail.
    RuntimeOptions snap = opt;
    snap.journal_path = journal("wal");
    snap.snapshot_interval = 2;
    Fault corrupt;
    corrupt.kind = FaultKind::kSnapshotCorrupt;
    corrupt.start_epoch = 2;
    corrupt.crash_stage = 0;  // kAuction
    Fault torn;
    torn.kind = FaultKind::kTornWrite;
    torn.start_epoch = 3;
    torn.crash_stage = 1;  // kProvisioning
    const RuntimeOutcome out = run_with_recovery(pool, tm, snap, {corrupt, torn});
    expect_identical(out, baseline, "snapshot bit flip + torn journal tail");
    EXPECT_EQ(out.restarts, 2u);
}

// A snapshot that passes its CRC check and carries the right
// fingerprint but does not decode is what an older reader sees after a
// state-format version bump. It must not strand any reader of the
// history: recovery, point-in-time queries and followers all ground on
// the next-older generation and stay bit-identical to the
// uninterrupted run.
TEST_F(StateHistoryRuntimeTest, UndecodableSnapshotFallsBackToOlderGeneration) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 6;
    const RuntimeOutcome plain = EpochRuntime(pool, tm, opt).run();
    const auto view_bytes = [&pool](const auto& state) {
        return serve::encode_epoch_view(*serve::build_epoch_view(pool.graph(), state));
    };

    enum class History { kCompacted, kUncompacted, kCrashBeforeCompaction };
    for (const History history :
         {History::kCompacted, History::kUncompacted, History::kCrashBeforeCompaction}) {
        const std::string ctx = "history " + std::to_string(static_cast<int>(history));
        RuntimeOptions snap = opt;
        snap.journal_path = journal("wal" + std::to_string(static_cast<int>(history)));
        snap.snapshot_interval = 2;
        snap.snapshot_keep = 3;
        snap.compact_after_snapshot = history != History::kUncompacted;
        std::map<std::uint64_t, std::string> leader_views;
        RuntimeOptions leader = snap;
        leader.on_epoch_commit = [&](const EpochCommit& c) {
            leader_views[c.completed_epochs] = view_bytes(c);
        };
        if (history == History::kCrashBeforeCompaction) {
            // snap-6 installed, the journal still holds epochs 4 and 5.
            leader.stage_hook = [](std::size_t epoch, Stage stage, HookPoint p) {
                if (epoch == 6 && stage == Stage::kCompaction && p == HookPoint::kMid) {
                    throw CrashInjected(epoch, stage, p);
                }
            };
            EXPECT_THROW(EpochRuntime(pool, tm, leader).run(), CrashInjected) << ctx;
        } else {
            EpochRuntime(pool, tm, leader).run();
        }
        ASSERT_EQ(leader_views.size(), 6u) << ctx;

        const util::SnapshotStore store(snap.journal_path, snap.snapshot_keep);
        util::write_snapshot_file(store.path_for(6), 6,
                                  runtime_meta_fingerprint(pool, tm, snap),
                                  "not a runtime state");
        // A compacted history can prove epoch 4 only; the others reach 6.
        const std::uint64_t provable = history == History::kCompacted ? 4 : 6;

        // Point-in-time queries ground on snap-4.
        for (std::uint64_t n = 4; n <= provable; ++n) {
            const auto state = materialize_state_at(pool, tm, snap, n);
            ASSERT_TRUE(state.has_value()) << ctx << " at " << n;
            EXPECT_EQ(view_bytes(*state), leader_views[n]) << ctx << " at " << n;
        }

        // A follower grounds on snap-4, publishes its view, and applies
        // only the journal suffix past it.
        serve::FollowerOptions fopt;
        fopt.runtime = snap;
        fopt.max_records_per_poll = 1;
        serve::Follower follower(pool, tm, fopt);
        std::map<std::uint64_t, std::string> seen;
        for (int polls = 0; polls < 64 && follower.applied_epochs() < provable; ++polls) {
            follower.poll();
            if (const auto v = follower.current()) {
                seen.emplace(v->completed_epochs, encode_epoch_view(*v));
            }
        }
        EXPECT_EQ(follower.status(), serve::FollowerStatus::kTailing) << ctx;
        EXPECT_EQ(follower.applied_epochs(), provable) << ctx;
        EXPECT_EQ(follower.stats().records_applied, 6 * (provable - 4)) << ctx;
        EXPECT_EQ(seen.size(), provable - 3) << ctx;
        EXPECT_EQ(seen.empty() ? 0 : seen.begin()->first, 4u) << ctx;
        for (const auto& [n, bytes] : seen) {
            EXPECT_EQ(bytes, leader_views[n]) << ctx << " follower view " << n;
        }

        // Recovery grounds on snap-4 too, and finishes bit-identical.
        const RuntimeOutcome again = EpochRuntime(pool, tm, snap).run();
        expect_identical(again, plain, ctx);
        EXPECT_TRUE(again.resumed_from_snapshot) << ctx;
        EXPECT_EQ(again.snapshot_epochs, 4u) << ctx;
        EXPECT_EQ(again.replayed_records, 6 * (provable - 4)) << ctx;
    }
}

// The tentpole property: whatever single corruption lands on the
// journal or the newest snapshot between crash and restart — torn
// writes at sampled byte offsets, single-bit flips, duplicated frames,
// appended garbage, stale temp files — recovery never throws and the
// finished run is bit-identical to the uninterrupted baseline.
TEST_F(StateHistoryRuntimeTest, CorruptionMatrixAlwaysRecoversToIdenticalState) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    RuntimeOptions durable = opt;
    durable.journal_path = journal("wal");
    durable.snapshot_interval = 1;
    {
        bool fired = false;
        durable.stage_hook = [&fired](std::size_t epoch, Stage stage, HookPoint p) {
            if (!fired && epoch == 1 && stage == Stage::kFlowSim && p == HookPoint::kMid) {
                fired = true;
                throw CrashInjected(epoch, stage, p);
            }
        };
        EXPECT_THROW(EpochRuntime(pool, tm, durable).run(), CrashInjected);
        durable.stage_hook = nullptr;
    }

    // Freeze the crashed process's disk state: the journal (epoch-1
    // records past the epoch-1 snapshot) and the snapshot files.
    std::map<std::string, std::string> pristine;
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
        pristine[entry.path().filename().string()] =
            util::FaultyFile::slurp(entry.path().string());
    }
    const auto restore = [&] {
        for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
            std::filesystem::remove(entry.path());
        }
        for (const auto& [name, bytes] : pristine) {
            util::FaultyFile::spit((dir_ / name).string(), bytes);
        }
    };
    const auto check = [&](const std::string& what) {
        const RuntimeOutcome out = EpochRuntime(pool, tm, durable).run();
        expect_identical(out, baseline, what);
    };

    const std::string jp = durable.journal_path;
    const std::uint64_t jsize = util::FaultyFile::size(jp);
    ASSERT_GT(jsize, 0u);
    const std::uint64_t jstep = std::max<std::uint64_t>(1, jsize / 24);
    for (std::uint64_t cut = 0; cut <= jsize; cut += jstep) {
        restore();
        util::FaultyFile::tear_at(jp, cut);
        check("journal torn at byte " + std::to_string(cut));
    }
    for (std::uint64_t off = 0; off < jsize; off += jstep) {
        restore();
        util::FaultyFile::flip_bit(jp, off, static_cast<unsigned>(off % 8));
        check("journal bit flip at byte " + std::to_string(off));
    }
    restore();
    util::FaultyFile::duplicate_range(jp, jsize / 3, jsize / 3);
    check("journal frame duplication");
    restore();
    util::FaultyFile::append_garbage(jp, "\xDE\xAD\xBE\xEFgarbage tail");
    check("journal appended garbage");
    restore();
    util::FaultyFile::make_stale_temp(jp, "compaction died before rename");
    check("stale journal rewrite temp");

    // Same treatment for the newest snapshot file.
    const util::SnapshotStore store(jp, durable.snapshot_keep);
    restore();
    const auto snaps = store.list();
    ASSERT_FALSE(snaps.empty());
    const std::string sp = snaps.back().path;
    const std::uint64_t ssize = util::FaultyFile::size(sp);
    ASSERT_GT(ssize, 0u);
    const std::uint64_t sstep = std::max<std::uint64_t>(1, ssize / 12);
    for (std::uint64_t cut = 0; cut <= ssize; cut += sstep) {
        restore();
        util::FaultyFile::tear_at(sp, cut);
        check("snapshot torn at byte " + std::to_string(cut));
    }
    for (std::uint64_t off = 0; off < ssize; off += sstep) {
        restore();
        util::FaultyFile::flip_bit(sp, off, static_cast<unsigned>((off + 5) % 8));
        check("snapshot bit flip at byte " + std::to_string(off));
    }
    restore();
    util::FaultyFile::make_stale_temp(store.path_for(99), "install died before rename");
    check("stale snapshot install temp");
}

// Satellite (b): a permanently-stuck crash point burns the restart
// budget (jittered backoff between attempts) and surfaces as a
// structured RecoveryExhausted instead of looping forever.
TEST_F(StateHistoryRuntimeTest, RestartBudgetExhaustsIntoRecoveryExhausted) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.journal_path = journal("wal");
    opt.restart.max_attempts = 3;
    // Unlike the chaos traces' fire-once crashes, this hook kills the
    // process at epoch 1's auction on EVERY attempt — and that stage
    // never journals, so no restart makes progress.
    opt.stage_hook = [](std::size_t epoch, Stage stage, HookPoint p) {
        if (epoch == 1 && stage == Stage::kAuction && p == HookPoint::kMid) {
            throw CrashInjected(epoch, stage, p);
        }
    };
    try {
        run_with_recovery(pool, tm, opt, {});
        FAIL() << "a permanently-stuck crash point must exhaust the restart budget";
    } catch (const RecoveryExhausted& e) {
        // Restart 1 journals epoch 0 (progress, fresh window); the
        // next max_attempts restarts are stuck.
        EXPECT_EQ(e.restarts(), 4u);
        EXPECT_NE(std::string(e.what()).find("recovery exhausted"), std::string::npos);
    }
    // The journal is not poisoned: dropping the fault finishes the run.
    opt.stage_hook = nullptr;
    const RuntimeOutcome out = EpochRuntime(pool, tm, opt).run();
    EXPECT_EQ(out.epochs.size(), opt.epochs);
}

// The acceptance property: with snapshots on, restart cost is bounded
// by the snapshot interval, not by how long the run has been going.
TEST_F(StateHistoryRuntimeTest, RestartCostIsBoundedByIntervalNotHistory) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 8;
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    Fault crash;
    crash.kind = FaultKind::kCrash;
    crash.start_epoch = 7;  // late in the run: maximal history
    crash.crash_stage = 2;  // kFlowSim

    RuntimeOptions plain = opt;
    plain.journal_path = journal("wal_plain");
    const RuntimeOutcome plain_out = run_with_recovery(pool, tm, plain, {crash});
    expect_identical(plain_out, baseline, "journal-only recovery");

    RuntimeOptions snap = opt;
    snap.journal_path = journal("wal_snap");
    snap.snapshot_interval = 2;
    const RuntimeOutcome snap_out = run_with_recovery(pool, tm, snap, {crash});
    expect_identical(snap_out, baseline, "snapshot-grounded recovery");

    // Journal-only replay walks all 7 completed epochs' records; the
    // snapshot-grounded restart replays at most interval+1 epochs'
    // worth (6 records per epoch).
    EXPECT_GE(plain_out.replayed_records, 7u * 6u);
    EXPECT_LE(snap_out.replayed_records, 2u * 6u + 4u);
    EXPECT_LT(snap_out.replayed_records, plain_out.replayed_records);
    EXPECT_TRUE(snap_out.resumed_from_snapshot);
    EXPECT_EQ(snap_out.snapshot_epochs, 6u);
}

// All the state-history knobs are engine knobs: flipping any of them
// across a restart — delta encoding, fsync, even snapshots themselves —
// cannot change a bit of the outcome.
TEST_F(StateHistoryRuntimeTest, KnobFlipsAcrossRestartStayBitIdentical) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    // Segment 1: snapshots on, fsync on. Crash mid-run.
    RuntimeOptions first = opt;
    first.journal_path = journal("wal");
    first.snapshot_interval = 2;
    first.fsync_journal = true;
    bool fired = false;
    first.stage_hook = [&fired](std::size_t epoch, Stage stage, HookPoint p) {
        if (!fired && epoch == 2 && stage == Stage::kFlowSim && p == HookPoint::kMid) {
            fired = true;
            throw CrashInjected(epoch, stage, p);
        }
    };
    EXPECT_THROW(EpochRuntime(pool, tm, first).run(), CrashInjected);

    // Segment 2: fsync off, snapshots off. The
    // snapshot store is still consulted on recovery (the crashed
    // process had snapshots on), so grounding works anyway.
    RuntimeOptions second = opt;
    second.journal_path = first.journal_path;
    second.snapshot_interval = 0;
    const RuntimeOutcome out = EpochRuntime(pool, tm, second).run();
    expect_identical(out, baseline, "resume with every state-history knob flipped");
    EXPECT_TRUE(out.resumed_from_snapshot);
    EXPECT_EQ(out.snapshot_epochs, 2u);
}

}  // namespace
}  // namespace poc::sim
