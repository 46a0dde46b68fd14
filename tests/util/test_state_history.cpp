// State-history store: varint/XOR-delta codec properties, snapshot
// file framing and atomic install, newest-valid fallback, pruning,
// stale-temp sweeping, and the byte-surgery fault toolkit itself.
#include "util/state_history.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace poc::util {
namespace {

/// load_at target that admits every generation.
constexpr std::uint64_t kNewest = ~std::uint64_t{0};

class StateHistoryTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("poc_state_history_test_" + std::string(info->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& name) const { return (dir_ / name).string(); }

    std::filesystem::path dir_;
};

TEST(Varint, RoundTripsRepresentativeValues) {
    const std::uint64_t values[] = {0,    1,    127,        128,
                                    255,  300,  16383,      16384,
                                    1u << 20, (1ull << 32) - 1, 1ull << 62, ~0ull};
    for (const std::uint64_t v : values) {
        std::string buf;
        put_varint(buf, v);
        std::size_t pos = 0;
        EXPECT_EQ(get_varint(buf, pos), v);
        EXPECT_EQ(pos, buf.size());
    }
    // Packed back to back.
    std::string buf;
    for (const std::uint64_t v : values) put_varint(buf, v);
    std::size_t pos = 0;
    for (const std::uint64_t v : values) EXPECT_EQ(get_varint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
}

TEST(Varint, RejectsTruncatedAndOverlongBytes) {
    std::size_t pos = 0;
    EXPECT_THROW(get_varint("", pos), StateHistoryError);
    pos = 0;
    EXPECT_THROW(get_varint("\x80", pos), StateHistoryError);  // continuation, no end
    pos = 0;
    // 11 continuation bytes: more than a u64 can carry.
    const std::string overlong(11, '\x80');
    EXPECT_THROW(get_varint(overlong, pos), StateHistoryError);
}

TEST(XorDelta, RoundTripsEveryShapeCombination) {
    const std::vector<std::string> shapes = {
        "",
        "a",
        "identical-bytes-identical-bytes",
        "identical-bytes-identicaX-bytes",
        std::string(200, 'z'),
        std::string(200, 'z') + "tail",
        std::string("\0\0\0\0binary\0payload", 18),
        "completely different content here",
    };
    for (const std::string& base : shapes) {
        for (const std::string& next : shapes) {
            const std::string delta = xor_delta_encode(base, next);
            EXPECT_EQ(xor_delta_decode(base, delta), next)
                << "base size " << base.size() << ", next size " << next.size();
        }
    }
}

TEST(XorDelta, NearIdenticalPayloadsShrink) {
    // The runtime's steady state: same shape, a few changed fields.
    std::string base(512, '\0');
    for (std::size_t i = 0; i < base.size(); ++i) base[i] = static_cast<char>(i * 7);
    std::string next = base;
    next[10] = 'X';
    next[300] = 'Y';
    const std::string delta = xor_delta_encode(base, next);
    EXPECT_LT(delta.size(), 32u);  // two short literal runs, not 512 bytes
    EXPECT_EQ(xor_delta_decode(base, delta), next);
    // Identical payloads collapse to (almost) nothing.
    EXPECT_LT(xor_delta_encode(base, base).size(), 8u);
}

TEST(XorDelta, RoundTripsRandomizedPairs) {
    Rng rng(20200809);
    for (int trial = 0; trial < 200; ++trial) {
        const std::size_t base_len = rng.uniform_int(std::uint64_t{64});
        std::string base(base_len, '\0');
        for (char& c : base) c = static_cast<char>(rng.uniform_int(std::uint64_t{256}));
        // next = base with random mutations, resizes, or fresh bytes.
        std::string next = base;
        next.resize(rng.uniform_int(std::uint64_t{64}));
        for (char& c : next) {
            if (rng.bernoulli(0.3)) c = static_cast<char>(rng.uniform_int(std::uint64_t{256}));
        }
        const std::string delta = xor_delta_encode(base, next);
        EXPECT_EQ(xor_delta_decode(base, delta), next) << "trial " << trial;
    }
}

TEST(XorDelta, RejectsMalformedDeltaBytes) {
    const std::string base = "some base payload";
    // Truncated mid-run.
    std::string delta = xor_delta_encode(base, "some base Xayload");
    ASSERT_GT(delta.size(), 2u);
    EXPECT_THROW(xor_delta_decode(base, delta.substr(0, delta.size() - 1)),
                 StateHistoryError);
    // Trailing garbage after the declared payload.
    EXPECT_THROW(xor_delta_decode(base, delta + "x"), StateHistoryError);
    // A literal run longer than the declared total.
    std::string evil;
    put_varint(evil, 2);   // total
    put_varint(evil, 0);   // skip
    put_varint(evil, 10);  // literal overruns total
    evil.append("0123456789");
    EXPECT_THROW(xor_delta_decode(base, evil), StateHistoryError);
    // A skip run that would read past the declared total.
    std::string evil2;
    put_varint(evil2, 2);
    put_varint(evil2, ~0ull);  // absurd skip: must not overflow checks
    put_varint(evil2, 0);
    EXPECT_THROW(xor_delta_decode(base, evil2), StateHistoryError);
}

TEST_F(StateHistoryTest, SnapshotFileRoundTripsAndInstallsAtomically) {
    const std::string p = path("state.snap-000000000004");
    const std::string payload(1000, '\x5A');
    write_snapshot_file(p, 4, "meta-v1", payload);
    EXPECT_FALSE(std::filesystem::exists(p + ".tmp"));  // temp renamed away

    const auto snap = read_snapshot_file(p);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->completed_epochs, 4u);
    EXPECT_EQ(snap->meta, "meta-v1");
    EXPECT_EQ(snap->payload, payload);
    EXPECT_EQ(snap->path, p);

    // Overwrite-in-place is atomic too: the new content replaces the
    // old wholesale.
    write_snapshot_file(p, 4, "meta-v1", "tiny");
    EXPECT_EQ(read_snapshot_file(p)->payload, "tiny");
}

TEST_F(StateHistoryTest, SnapshotReadRejectsEveryTruncationOffset) {
    const std::string p = path("snap");
    write_snapshot_file(p, 7, "m", "payload-bytes-here");
    const std::string intact = FaultyFile::slurp(p);
    ASSERT_FALSE(intact.empty());
    for (std::uint64_t cut = 0; cut < intact.size(); ++cut) {
        FaultyFile::spit(p, intact);
        FaultyFile::tear_at(p, cut);
        EXPECT_FALSE(read_snapshot_file(p).has_value()) << "cut at " << cut;
    }
}

TEST_F(StateHistoryTest, SnapshotReadRejectsEverySingleBitFlip) {
    const std::string p = path("snap");
    write_snapshot_file(p, 7, "m", "payload-bytes-here");
    const std::string intact = FaultyFile::slurp(p);
    for (std::uint64_t off = 0; off < intact.size(); ++off) {
        for (unsigned bit = 0; bit < 8; ++bit) {
            FaultyFile::spit(p, intact);
            FaultyFile::flip_bit(p, off, bit);
            EXPECT_FALSE(read_snapshot_file(p).has_value())
                << "flip at byte " << off << " bit " << bit;
        }
    }
    // Control: the untouched file still validates.
    FaultyFile::spit(p, intact);
    EXPECT_TRUE(read_snapshot_file(p).has_value());
}

TEST_F(StateHistoryTest, SnapshotReadRejectsGarbageAndMissingFiles) {
    EXPECT_FALSE(read_snapshot_file(path("missing")).has_value());
    FaultyFile::spit(path("garbage"), "this is not a snapshot at all");
    EXPECT_FALSE(read_snapshot_file(path("garbage")).has_value());
    // Appended trailing bytes break the exact-size frame.
    const std::string p = path("snap");
    write_snapshot_file(p, 1, "m", "x");
    FaultyFile::append_garbage(p, "trailing");
    EXPECT_FALSE(read_snapshot_file(p).has_value());
}

TEST_F(StateHistoryTest, StoreListsWritesAndPrunesGenerations) {
    const SnapshotStore store(path("journal"), /*keep=*/2);
    EXPECT_TRUE(store.enabled());
    EXPECT_TRUE(store.list().empty());

    store.write(4, "m", "four");
    store.write(8, "m", "eight");
    auto snaps = store.list();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].completed_epochs, 4u);
    EXPECT_EQ(snaps[1].completed_epochs, 8u);

    // A third generation prunes the oldest (keep = 2).
    store.write(12, "m", "twelve");
    snaps = store.list();
    ASSERT_EQ(snaps.size(), 2u);
    EXPECT_EQ(snaps[0].completed_epochs, 8u);
    EXPECT_EQ(snaps[1].completed_epochs, 12u);

    // Foreign files and stale temps next to the journal are not listed.
    FaultyFile::spit(path("journal.snap-notdigits"), "x");
    FaultyFile::make_stale_temp(store.path_for(16), "partial install");
    EXPECT_EQ(store.list().size(), 2u);
}

TEST_F(StateHistoryTest, LoadNewestValidFallsBackPastCorruptAndForeign) {
    const SnapshotStore store(path("journal"), /*keep=*/3);
    store.write(4, "mine", "four");
    store.write(8, "mine", "eight");
    store.write(12, "mine", "twelve");

    // Newest wins when everything validates.
    auto snap = store.load_at(kNewest, "mine");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->completed_epochs, 12u);

    // Corrupt the newest: the next-older generation answers.
    FaultyFile::flip_bit(store.path_for(12), 20, 2);
    snap = store.load_at(kNewest, "mine");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->completed_epochs, 8u);
    EXPECT_EQ(snap->payload, "eight");

    // A foreign configuration's snapshot is skipped, not loaded.
    write_snapshot_file(store.path_for(8), 8, "theirs", "not-yours");
    snap = store.load_at(kNewest, "mine");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->completed_epochs, 4u);

    // Nothing survives: nullopt, never a throw.
    FaultyFile::tear_at(store.path_for(4), 3);
    EXPECT_FALSE(store.load_at(kNewest, "mine").has_value());
}

TEST_F(StateHistoryTest, LoadAtPicksNewestGenerationAtOrBelowTarget) {
    const SnapshotStore store(path("journal"), /*keep=*/4);
    store.write(4, "mine", "four");
    store.write(8, "mine", "eight");
    store.write(12, "mine", "twelve");

    // Exact hit, between generations, above all, below all.
    ASSERT_TRUE(store.load_at(8, "mine").has_value());
    EXPECT_EQ(store.load_at(8, "mine")->completed_epochs, 8u);
    EXPECT_EQ(store.load_at(11, "mine")->completed_epochs, 8u);
    EXPECT_EQ(store.load_at(100, "mine")->completed_epochs, 12u);
    EXPECT_EQ(store.load_at(4, "mine")->payload, "four");
    EXPECT_FALSE(store.load_at(3, "mine").has_value());
}

TEST_F(StateHistoryTest, LoadAtFallsBackPastCorruptAndForeignGenerations) {
    const SnapshotStore store(path("journal"), /*keep=*/4);
    store.write(4, "mine", "four");
    store.write(8, "mine", "eight");
    store.write(12, "mine", "twelve");

    // Corrupt the best candidate for target 10: the older generation
    // answers instead (grounding further back is always sound — the
    // journal suffix replay just gets longer).
    FaultyFile::flip_bit(store.path_for(8), 20, 2);
    auto snap = store.load_at(10, "mine");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->completed_epochs, 4u);
    EXPECT_EQ(snap->payload, "four");

    // A newer-than-target generation is never consulted, even intact.
    EXPECT_EQ(store.load_at(11, "mine")->completed_epochs, 4u);
    // Foreign fingerprint at 4 too: nothing ≤ target survives.
    write_snapshot_file(store.path_for(4), 4, "theirs", "not-yours");
    EXPECT_FALSE(store.load_at(10, "mine").has_value());
    // But the intact 12-generation still serves higher targets.
    EXPECT_EQ(store.load_at(12, "mine")->completed_epochs, 12u);
}

TEST_F(StateHistoryTest, LoadAtRejectsAGenerationMisnamedForItsHeader) {
    const SnapshotStore store(path("journal"), /*keep=*/4);
    store.write(4, "mine", "four");
    // CRC-valid, right fingerprint, but installed under another
    // generation's name: not a valid generation 8.
    write_snapshot_file(store.path_for(8), 12, "mine", "twelve");
    EXPECT_EQ(store.load_at(kNewest, "mine")->completed_epochs, 4u);
    EXPECT_EQ(store.load_at(8, "mine")->payload, "four");
}

TEST_F(StateHistoryTest, ReadOnlyStoreAndScanReadALiveHistory) {
    // A runtime-shaped layout: live journal + snapshot generations
    // next to it, with the writer still holding the append handle.
    const std::string jp = path("journal");
    Journal writer = Journal::create(jp, "run-meta");
    writer.append(1, "epoch-0");
    const SnapshotStore store(jp, /*keep=*/4);
    store.write(1, "run-meta", "state@1");
    writer.append(1, "epoch-1");

    const SnapshotStore reader(jp, /*keep=*/2, /*read_only=*/true);
    auto snap = reader.load_at(1, "run-meta");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->completed_epochs, 1u);
    EXPECT_EQ(snap->payload, "state@1");
    EXPECT_FALSE(reader.load_at(0, "run-meta").has_value());

    Journal::ScanResult scan;
    Journal::scan_file(jp, scan);
    EXPECT_EQ(scan.meta, "run-meta");
    ASSERT_EQ(scan.records.size(), 2u);

    // The scan is read-only: the live writer keeps appending and the
    // next scan sees its record.
    writer.append(1, "epoch-2");
    Journal::scan_file(jp, scan);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[2].payload, "epoch-2");
}

TEST_F(StateHistoryTest, SweepRemovesOnlyStaleTemps) {
    const SnapshotStore store(path("journal"), 2);
    store.write(4, "m", "real");
    FaultyFile::make_stale_temp(store.path_for(8), "died before rename");
    FaultyFile::spit(path("unrelated.tmp"), "not ours");

    EXPECT_EQ(store.sweep_stale_temps(), 1u);
    EXPECT_FALSE(std::filesystem::exists(store.path_for(8) + ".tmp"));
    EXPECT_TRUE(std::filesystem::exists(path("unrelated.tmp")));
    ASSERT_EQ(store.list().size(), 1u);
    EXPECT_TRUE(read_snapshot_file(store.path_for(4)).has_value());
    EXPECT_EQ(store.sweep_stale_temps(), 0u);
}

TEST_F(StateHistoryTest, ReadOnlyStoreObservesButNeverMutates) {
    // Writer-only temp-file ownership: a follower's or point-in-time
    // reader's store must never write, prune, or sweep — a "stale" .tmp next to
    // the journal may be the live leader mid-install.
    const SnapshotStore writer(path("journal"), /*keep=*/2);
    writer.write(4, "m", "four");
    writer.write(8, "m", "eight");
    FaultyFile::make_stale_temp(writer.path_for(12), "leader mid-install");

    const SnapshotStore ro(path("journal"), /*keep=*/1, /*read_only=*/true);
    EXPECT_TRUE(ro.read_only());
    EXPECT_FALSE(writer.read_only());

    // Reads all work.
    EXPECT_EQ(ro.list().size(), 2u);
    auto snap = ro.load_at(kNewest, "m");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->completed_epochs, 8u);

    // Mutations are refused (write) or inert (prune/sweep) — even with
    // keep=1, which would prune generation 4 on a writable store.
    EXPECT_THROW(ro.write(12, "m", "twelve"), StateHistoryError);
    EXPECT_EQ(ro.prune(), 0u);
    EXPECT_EQ(ro.sweep_stale_temps(), 0u);
    EXPECT_EQ(ro.list().size(), 2u);
    EXPECT_TRUE(std::filesystem::exists(writer.path_for(12) + ".tmp"));
}

TEST_F(StateHistoryTest, DisabledStoreIsInert) {
    const SnapshotStore store;
    EXPECT_FALSE(store.enabled());
    EXPECT_TRUE(store.list().empty());
    EXPECT_FALSE(store.load_at(kNewest, "m").has_value());
    EXPECT_EQ(store.prune(), 0u);
    EXPECT_EQ(store.sweep_stale_temps(), 0u);
}

TEST_F(StateHistoryTest, FileSnapshotSinkWritesThrough) {
    FileSnapshotSink sink{SnapshotStore(path("journal"), 2)};
    sink.emit(4, "m", "payload");
    const auto snap = sink.store().load_at(kNewest, "m");
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->completed_epochs, 4u);
    EXPECT_EQ(snap->payload, "payload");
}

TEST_F(StateHistoryTest, FaultyFileByteSurgeryIsExact) {
    const std::string p = path("victim");
    FaultyFile::spit(p, "0123456789");
    EXPECT_EQ(FaultyFile::size(p), 10u);
    EXPECT_EQ(FaultyFile::slurp(p), "0123456789");

    FaultyFile::tear_at(p, 6);
    EXPECT_EQ(FaultyFile::slurp(p), "012345");
    FaultyFile::tear_at(p, 100);  // beyond EOF: no-op
    EXPECT_EQ(FaultyFile::slurp(p), "012345");

    FaultyFile::flip_bit(p, 0, 0);  // '0' (0x30) -> '1' (0x31)
    EXPECT_EQ(FaultyFile::slurp(p), "112345");
    FaultyFile::flip_bit(p, 999, 0);  // beyond EOF: no-op
    EXPECT_EQ(FaultyFile::slurp(p), "112345");

    FaultyFile::truncate_tail(p, 2);
    EXPECT_EQ(FaultyFile::slurp(p), "1123");
    FaultyFile::truncate_tail(p, 100);  // clamped
    EXPECT_EQ(FaultyFile::slurp(p), "");

    FaultyFile::spit(p, "abcdef");
    FaultyFile::duplicate_range(p, 2, 3);
    EXPECT_EQ(FaultyFile::slurp(p), "abcdefcde");
    FaultyFile::duplicate_range(p, 7, 100);  // clamped to the tail
    EXPECT_EQ(FaultyFile::slurp(p), "abcdefcdede");

    FaultyFile::append_garbage(p, "!!");
    EXPECT_EQ(FaultyFile::slurp(p), "abcdefcdede!!");

    FaultyFile::make_stale_temp(p, "half-written");
    EXPECT_EQ(FaultyFile::slurp(p + ".tmp"), "half-written");

    EXPECT_EQ(FaultyFile::slurp(path("missing")), "");
    EXPECT_EQ(FaultyFile::size(path("missing")), 0u);
}

}  // namespace
}  // namespace poc::util
