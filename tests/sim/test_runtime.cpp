// Durable epoch runtime: crash-recovery bit-identity, torn-tail
// handling, retry/backoff pinning, and breaker-driven degradation.
#include "sim/runtime.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "helpers/market.hpp"
#include "obs/metrics.hpp"

namespace poc::sim {
namespace {

using test::ParallelLinksFixture;

/// Byte-exact comparison key for an optional auction result. The
/// work-accounting diagnostics (oracle query and cache-hit counts)
/// are scrubbed first: they legitimately vary across engine configs
/// and retry counts (DESIGN.md §5, test_auction_parallel.cpp), while
/// bit-identity covers the economic outcome.
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

/// Everything bit-identity covers: per-epoch records, every auction
/// outcome, the full ledger, and the RNG stream position. Recovery
/// diagnostics (replay_ms etc.) are intentionally excluded.
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

class RuntimeTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test directory: ctest runs each case as its own process,
        // so a shared fixed path would let concurrent cases clobber
        // each other's journals via remove_all.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("poc_runtime_test_" + std::string(info->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string journal(const std::string& name) const { return (dir_ / name).string(); }

    /// Base options: 3 epochs of the single-failure-resilient pipeline
    /// over the 3-parallel-links fixture.
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

TEST_F(RuntimeTest, HealthyRunProvisionsAndSettles) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome out = EpochRuntime(pool, tm, opt).run();

    ASSERT_EQ(out.epochs.size(), 3u);
    for (const EpochRecord& rec : out.epochs) {
        EXPECT_TRUE(rec.provisioned);
        EXPECT_FALSE(rec.degraded_mode);
        EXPECT_FALSE(rec.breaker_open);
        EXPECT_EQ(rec.retry_attempts, 1u);
        EXPECT_NEAR(rec.delivered_fraction, 1.0, 1e-9);
        EXPECT_GT(rec.outlay, util::Money{});
    }
    // Single-failure resilience on parallel links needs two circuits.
    ASSERT_TRUE(out.auctions[0].has_value());
    EXPECT_EQ(out.auctions[0]->selection.links.size(), 2u);
    // Settlement is double-entry and break-even for the POC.
    EXPECT_TRUE(out.ledger.conserves());
    EXPECT_TRUE(out.ledger.poc_net().is_zero());
    EXPECT_EQ(out.retry.calls, 3u);
    EXPECT_EQ(out.retry.failures, 0u);
}

TEST_F(RuntimeTest, JournaledRunMatchesUnjournaledRun) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome plain = EpochRuntime(pool, tm, opt).run();

    opt.journal_path = journal("wal");
    const RuntimeOutcome durable = EpochRuntime(pool, tm, opt).run();
    expect_identical(durable, plain, "journal on vs off");
    EXPECT_EQ(durable.replayed_epochs, 0u);
    EXPECT_GT(std::filesystem::file_size(opt.journal_path), 0u);

    // Re-running over the *completed* journal is pure replay: no new
    // work, same bits.
    const RuntimeOutcome replayed = EpochRuntime(pool, tm, opt).run();
    expect_identical(replayed, plain, "pure replay");
    EXPECT_EQ(replayed.replayed_epochs, 3u);
    EXPECT_EQ(replayed.retry.calls, 0u) << "replay must not re-clear";
}

TEST_F(RuntimeTest, PathCacheOutcomeBitIdentical) {
    // The runtime's shared PathCache (use_path_cache) spans the
    // clearing oracles and the flow stage of every epoch; disabling it
    // must not change a single bit of the outcome.
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.use_path_cache = true;
    const RuntimeOutcome cached = EpochRuntime(pool, tm, opt).run();
    opt.use_path_cache = false;
    const RuntimeOutcome plain = EpochRuntime(pool, tm, opt).run();
    expect_identical(cached, plain, "path cache on vs off");
}

TEST_F(RuntimeTest, ResumeSurvivesPathCacheFlip) {
    // use_path_cache is an engine knob excluded from the journal's
    // configuration fingerprint: a journal written with it on may
    // resume with it off (and vice versa) bit-identically.
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    RuntimeOptions durable = opt;
    durable.use_path_cache = true;
    durable.journal_path = journal("wal");
    bool fired = false;
    durable.stage_hook = [&fired](std::size_t epoch, Stage stage, HookPoint p) {
        if (!fired && epoch == 1 && stage == Stage::kFlowSim && p == HookPoint::kMid) {
            fired = true;
            throw CrashInjected(epoch, stage, p);
        }
    };
    EXPECT_THROW(EpochRuntime(pool, tm, durable).run(), CrashInjected);

    durable.stage_hook = nullptr;
    durable.use_path_cache = false;
    const RuntimeOutcome out = EpochRuntime(pool, tm, durable).run();
    expect_identical(out, baseline, "resume with path cache flipped off");
}

// The tentpole property: a process killed mid-stage at ANY stage of
// ANY epoch — across engine configs (delta memo on/off, 1 and 8 threads) —
// recovers to bit-identical ledger balances, auction outcomes, and RNG
// stream positions.
TEST_F(RuntimeTest, CrashAnywhereReplaysBitIdentical) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    const struct {
        std::size_t threads;
        bool memo;
    } configs[] = {{1, false}, {1, true}, {8, false}, {8, true}};
    int n = 0;
    for (const auto& cfg : configs) {
        for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
            for (std::uint32_t stage = 0; stage < kStageCount; ++stage) {
                RuntimeOptions crashed = opt;
                crashed.request.auction.threads = cfg.threads;
                crashed.use_delta_reclear = cfg.memo;
                crashed.journal_path = journal("wal" + std::to_string(n++));
                Fault crash;
                crash.kind = FaultKind::kCrash;
                crash.start_epoch = epoch;
                crash.crash_stage = stage;
                const RuntimeOutcome out = run_with_recovery(pool, tm, crashed, {crash});
                expect_identical(out, baseline,
                                 "crash at epoch " + std::to_string(epoch) + " stage " +
                                     stage_name(static_cast<Stage>(stage)) + " threads " +
                                     std::to_string(cfg.threads) +
                                     (cfg.memo ? " memo" : " nomemo"));
                EXPECT_GT(out.replayed_records, 0u) << "recovery must replay the journal";
            }
        }
    }
}

TEST_F(RuntimeTest, RepeatedCrashesAcrossTheRunStillConverge) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    std::vector<Fault> trace;
    for (std::size_t epoch = 0; epoch < opt.epochs; ++epoch) {
        for (std::uint32_t stage = 0; stage < kStageCount; ++stage) {
            Fault f;
            f.kind = FaultKind::kCrash;
            f.start_epoch = epoch;
            f.crash_stage = stage;
            trace.push_back(f);
        }
    }
    RuntimeOptions crashed = opt;
    crashed.journal_path = journal("wal");
    const RuntimeOutcome out = run_with_recovery(pool, tm, crashed, trace);
    expect_identical(out, baseline, "a crash in every stage of every epoch");
}

TEST_F(RuntimeTest, CrashAtStageBoundariesReplaysBitIdentical) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    for (const HookPoint point : {HookPoint::kBefore, HookPoint::kAfter}) {
        RuntimeOptions crashed = opt;
        crashed.journal_path =
            journal(point == HookPoint::kBefore ? "wal_before" : "wal_after");
        bool fired = false;
        crashed.stage_hook = [&fired, point](std::size_t epoch, Stage stage, HookPoint p) {
            if (!fired && epoch == 1 && stage == Stage::kFlowSim && p == point) {
                fired = true;
                throw CrashInjected(epoch, stage, p);
            }
        };
        RuntimeOutcome out;
        for (;;) {
            try {
                out = EpochRuntime(pool, tm, crashed).run();
                break;
            } catch (const CrashInjected&) {
                // restart
            }
        }
        EXPECT_TRUE(fired);
        expect_identical(out, baseline, "boundary crash");
    }
}

TEST_F(RuntimeTest, TornJournalTailIsDetectedTruncatedAndRecovered) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    // Crash at epoch 1's flow-sim, then corrupt the journal tail the
    // way a dying process would: a half-written frame.
    RuntimeOptions durable = opt;
    durable.journal_path = journal("wal");
    {
        bool fired = false;
        durable.stage_hook = [&fired](std::size_t epoch, Stage stage, HookPoint p) {
            if (!fired && epoch == 1 && stage == Stage::kFlowSim && p == HookPoint::kMid) {
                fired = true;
                throw CrashInjected(epoch, stage, p);
            }
        };
        EXPECT_THROW(EpochRuntime(pool, tm, durable).run(), CrashInjected);
    }
    {
        std::ofstream out(durable.journal_path,
                          std::ios::binary | std::ios::app);
        const char torn[] = {0x05, 0x00, static_cast<char>(0xFF), static_cast<char>(0xFF),
                             0x00, 0x00, 0x01, 0x02, 0x03};
        out.write(torn, sizeof torn);
    }
    durable.stage_hook = nullptr;
    const RuntimeOutcome out = EpochRuntime(pool, tm, durable).run();
    EXPECT_TRUE(out.tail_truncated) << "the corrupt tail must be detected, never replayed";
    expect_identical(out, baseline, "recovery from torn tail");
}

TEST_F(RuntimeTest, JournalFromDifferentConfigurationIsRefused) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.journal_path = journal("wal");
    EpochRuntime(pool, tm, opt).run();

    RuntimeOptions other = opt;
    other.seed = opt.seed + 1;
    EXPECT_THROW(EpochRuntime(pool, tm, other).run(), util::JournalError);
}

TEST_F(RuntimeTest, ResumeSurvivesEngineConfigChange) {
    // threads/cache are excluded from the journal fingerprint on
    // purpose: the engine is bit-identical across them (DESIGN.md §5),
    // so a journal written serially may resume under the parallel
    // cached engine.
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    const RuntimeOutcome baseline = EpochRuntime(pool, tm, opt).run();

    RuntimeOptions durable = opt;
    durable.journal_path = journal("wal");
    bool fired = false;
    durable.stage_hook = [&fired](std::size_t epoch, Stage stage, HookPoint p) {
        if (!fired && epoch == 1 && stage == Stage::kAuction && p == HookPoint::kMid) {
            fired = true;
            throw CrashInjected(epoch, stage, p);
        }
    };
    EXPECT_THROW(EpochRuntime(pool, tm, durable).run(), CrashInjected);

    durable.stage_hook = nullptr;
    durable.request.auction.threads = 8;
    const RuntimeOutcome out = EpochRuntime(pool, tm, durable).run();
    expect_identical(out, baseline, "resume under threads=8");
}

TEST_F(RuntimeTest, FlakyOracleRecoversToHealthyOutcome) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 1;
    const RuntimeOutcome healthy = EpochRuntime(pool, tm, opt).run();

    // The oracle times out/fails twice, then comes back: with a 3-
    // attempt budget the epoch must clear with the same outcome bits.
    RuntimeOptions flaky = opt;
    flaky.retry.max_attempts = 3;
    int failures_left = 2;
    flaky.oracle_fault = [&failures_left](std::size_t) {
        if (failures_left > 0) {
            --failures_left;
            throw util::TransientError("scripted oracle outage");
        }
    };
    const RuntimeOutcome out = EpochRuntime(pool, tm, flaky).run();

    EXPECT_EQ(out.retry.attempts, 3u);
    EXPECT_EQ(out.retry.failures, 2u);
    EXPECT_EQ(out.retry.successes, 1u);
    ASSERT_EQ(out.epochs.size(), 1u);
    EXPECT_EQ(out.epochs[0].retry_attempts, 3u);
    EXPECT_FALSE(out.epochs[0].degraded_mode);
    // Same auction, ledger, and RNG position as the healthy run; only
    // the attempt count differs.
    EXPECT_EQ(auction_bytes(out.auctions[0]), auction_bytes(healthy.auctions[0]));
    EXPECT_EQ(out.ledger.transfers(), healthy.ledger.transfers());
    EXPECT_TRUE(out.final_rng == healthy.final_rng);
    EXPECT_GT(out.retry.backoff_ms_total, 0.0);
}

TEST_F(RuntimeTest, PermanentlyDownOracleTripsBreakerAndDegrades) {
#if POC_OBS_ENABLED
    const std::uint64_t breaker_epochs_before =
        obs::registry().counter("sim.runtime.breaker_open_epochs").value();
    const std::uint64_t attempts_before =
        obs::registry().counter("sim.runtime.retry_attempts").value();
#endif
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.epochs = 4;
    opt.retry.max_attempts = 2;
    opt.breaker.failure_threshold = 2;
    opt.breaker.cooldown_ms = 1e9;  // stays open for the whole test
    opt.oracle_fault = [](std::size_t) {
        throw util::TransientError("oracle permanently down");
    };
    const RuntimeOutcome out = EpochRuntime(pool, tm, opt).run();

    ASSERT_EQ(out.epochs.size(), 4u);
    for (const EpochRecord& rec : out.epochs) {
        // Every epoch degrades to the relaxed load-only re-clear: one
        // link instead of the two the resilience constraint demands.
        EXPECT_TRUE(rec.provisioned);
        EXPECT_TRUE(rec.degraded_mode);
        EXPECT_NEAR(rec.delivered_fraction, 1.0, 1e-9);
    }
    ASSERT_TRUE(out.auctions[0].has_value());
    EXPECT_EQ(out.auctions[0]->selection.links.size(), 1u);

    // Epochs 0-1 burn the full retry budget; the breaker then opens
    // and epochs 2-3 fast-fail straight to the degraded path.
    EXPECT_EQ(out.epochs[0].retry_attempts, 2u);
    EXPECT_EQ(out.epochs[1].retry_attempts, 2u);
    EXPECT_FALSE(out.epochs[1].breaker_open);
    EXPECT_EQ(out.epochs[2].retry_attempts, 0u);
    EXPECT_TRUE(out.epochs[2].breaker_open);
    EXPECT_TRUE(out.epochs[3].breaker_open);
    EXPECT_EQ(out.breaker_open_epochs, 2u);
    EXPECT_EQ(out.retry.exhausted, 2u);
    EXPECT_EQ(out.retry.breaker_opens, 1u);
    EXPECT_EQ(out.retry.breaker_fast_fails, 2u);
    EXPECT_TRUE(out.ledger.conserves());
#if POC_OBS_ENABLED
    EXPECT_EQ(obs::registry().counter("sim.runtime.breaker_open_epochs").value(),
              breaker_epochs_before + 2);
    EXPECT_EQ(obs::registry().counter("sim.runtime.retry_attempts").value(),
              attempts_before + 4);
#endif
}

TEST_F(RuntimeTest, OracleDegradedChaosFaultDrivesRetries) {
    const auto pool = fx_.pool();
    const auto tm = fx_.demand(8.0);
    RuntimeOptions opt = base_options();
    opt.journal_path = journal("wal");
    opt.retry.max_attempts = 2;

    // Epoch 1 is inside a degraded-oracle window: its primary path
    // exhausts and relaxes; epochs 0 and 2 clear normally.
    Fault f;
    f.kind = FaultKind::kOracleDegraded;
    f.start_epoch = 1;
    f.repair_epochs = 1;
    const RuntimeOutcome out = run_with_recovery(pool, tm, opt, {f});

    ASSERT_EQ(out.epochs.size(), 3u);
    EXPECT_FALSE(out.epochs[0].degraded_mode);
    EXPECT_TRUE(out.epochs[1].degraded_mode);
    EXPECT_FALSE(out.epochs[2].degraded_mode);
    EXPECT_EQ(out.epochs[1].retry_attempts, 2u);
    EXPECT_TRUE(out.ledger.conserves());
}

TEST_F(RuntimeTest, ChaosTraceDrawsControlPlaneFaults) {
    const auto pool = fx_.pool();
    FaultInjectorOptions fopt;
    fopt.epochs = 8;
    fopt.link_cut_rate = 0.0;
    fopt.conduit_cut_rate = 0.0;
    fopt.router_outage_rate = 0.0;
    fopt.bp_outage_rate = 0.0;
    fopt.brownout_rate = 0.0;
    fopt.crash_rate = 1.0;
    fopt.oracle_degraded_rate = 1.0;
    const auto srlgs = shared_risk_groups(pool.graph());
    const auto trace = draw_fault_trace(pool, srlgs, fopt);
    ASSERT_FALSE(trace.empty());
    bool saw_crash = false;
    bool saw_degraded = false;
    for (const Fault& f : trace) {
        if (f.kind == FaultKind::kCrash) {
            saw_crash = true;
            EXPECT_LT(f.crash_stage, kStageCount);
            EXPECT_EQ(f.repair_epochs, 1u);
        }
        if (f.kind == FaultKind::kOracleDegraded) saw_degraded = true;
        EXPECT_TRUE(f.links.empty());
    }
    EXPECT_TRUE(saw_crash);
    EXPECT_TRUE(saw_degraded);
}

}  // namespace
}  // namespace poc::sim
