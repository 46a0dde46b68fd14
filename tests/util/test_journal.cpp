// Write-ahead journal: framing, checksums, torn-tail truncation, and
// the binary (de)serialization substrate.
#include "util/journal.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string_view>

namespace poc::util {
namespace {

class JournalTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Per-test directory: ctest runs each case as its own process,
        // so a shared fixed path would let concurrent cases clobber
        // each other's files via remove_all.
        const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
        dir_ = std::filesystem::temp_directory_path() /
               ("poc_journal_test_" + std::string(info->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& name) const { return (dir_ / name).string(); }

    /// Raw file bytes (for corruption surgery).
    static std::string slurp(const std::string& p) {
        std::ifstream in(p, std::ios::binary);
        return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }
    static void spit(const std::string& p, const std::string& bytes) {
        std::ofstream out(p, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::filesystem::path dir_;
};

TEST(BinaryRoundTrip, AllScalarTypes) {
    BinaryWriter w;
    w.u8(0xAB);
    w.u16(0xBEEF);
    w.u32(0xDEADBEEFu);
    w.u64(0x0123456789ABCDEFull);
    w.i64(-42);
    w.f64(3.141592653589793);
    w.boolean(true);
    w.boolean(false);
    w.str("hello\0world");  // literal truncates at NUL; checks prefix form
    w.str(std::string("bin\0ary", 7));

    BinaryReader r(w.bytes());
    EXPECT_EQ(r.u8(), 0xAB);
    EXPECT_EQ(r.u16(), 0xBEEF);
    EXPECT_EQ(r.u32(), 0xDEADBEEFu);
    EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
    EXPECT_EQ(r.i64(), -42);
    EXPECT_EQ(r.f64(), 3.141592653589793);
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "hello");
    EXPECT_EQ(r.str(), std::string("bin\0ary", 7));
    EXPECT_TRUE(r.exhausted());
}

TEST(BinaryRoundTrip, ReaderThrowsOnUnderrun) {
    BinaryWriter w;
    w.u32(7);
    BinaryReader r(w.bytes());
    EXPECT_THROW(r.u64(), JournalError);
    // A length-prefixed string whose length exceeds the buffer must
    // throw, not allocate garbage.
    BinaryWriter w2;
    w2.u64(1'000'000);
    BinaryReader r2(w2.bytes());
    EXPECT_THROW(r2.str(), JournalError);
}

TEST(BinaryRoundTrip, CountIsBoundedByRemainingBytes) {
    BinaryWriter w;
    w.u64(2);
    w.u32(7);
    w.u32(9);
    BinaryReader fits(w.bytes());
    EXPECT_EQ(fits.count(sizeof(std::uint32_t)), 2u);
    EXPECT_EQ(fits.remaining(), 8u);
    BinaryReader too_wide(w.bytes());
    EXPECT_THROW(too_wide.count(5), JournalError);  // 2 x 5 > 8 bytes left

    BinaryWriter huge;
    huge.u64(std::uint64_t{1} << 61);
    BinaryReader r(huge.bytes());
    EXPECT_THROW(r.count(1), JournalError);
}

TEST(Crc32, KnownVectors) {
    // IEEE 802.3 reference values.
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"), 0x414FA339u);
}

/// The bytewise CRC-32 register update, frozen: one table lookup per
/// byte, the definition the word-at-a-time update must reproduce.
std::uint32_t bytewise_crc_update(std::uint32_t crc, std::string_view bytes) {
    for (const char byte : bytes) {
        crc ^= static_cast<unsigned char>(byte);
        for (int k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc;
}

/// Deterministic pseudo-random bytes (xorshift), so every byte value
/// and alignment shows up.
std::string noise_bytes(std::size_t n) {
    std::string bytes(n, '\0');
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (char& b : bytes) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        b = static_cast<char>(x >> 56);
    }
    return bytes;
}

TEST(Crc32, MatchesBytewiseAtEveryLengthAndOffset) {
    const std::string noise = noise_bytes(1024 + 8);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 1024; ++len) {
            const std::string_view bytes(noise.data() + offset, len);
            ASSERT_EQ(crc32(bytes), bytewise_crc_update(0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu)
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(Crc32, ChainedUpdatesEqualOneUpdateOverTheConcatenation) {
    // frame_crc's shape: a 2-byte type, then the payload.
    const std::string noise = noise_bytes(300);
    const std::string_view all(noise);
    for (const std::size_t split : {0u, 1u, 2u, 7u, 8u, 9u, 64u, 299u, 300u}) {
        const std::uint32_t chained =
            crc32_update(crc32_update(0xFFFFFFFFu, all.substr(0, split)), all.substr(split));
        EXPECT_EQ(chained, crc32_update(0xFFFFFFFFu, all)) << "split " << split;
        EXPECT_EQ(chained ^ 0xFFFFFFFFu, crc32(all)) << "split " << split;
    }
}

TEST_F(JournalTest, CreateAppendOpenRoundTrip) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "meta-v1");
        j.append(1, "first");
        j.append(2, std::string("second\0payload", 14));
        j.append(3, "");  // empty payloads are legal
    }
    Journal::ScanResult scan;
    Journal j = Journal::open(p, scan);
    EXPECT_EQ(scan.meta, "meta-v1");
    EXPECT_FALSE(scan.tail_truncated);
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[0].type, 1);
    EXPECT_EQ(scan.records[0].payload, "first");
    EXPECT_EQ(scan.records[1].type, 2);
    EXPECT_EQ(scan.records[1].payload, std::string("second\0payload", 14));
    EXPECT_EQ(scan.records[2].type, 3);
    EXPECT_EQ(scan.records[2].payload, "");

    // The reopened journal appends to the same log.
    j.append(4, "resumed");
    Journal::ScanResult scan2;
    Journal::open(p, scan2);
    ASSERT_EQ(scan2.records.size(), 4u);
    EXPECT_EQ(scan2.records[3].payload, "resumed");
}

TEST_F(JournalTest, ScanFileReadsWithoutTruncatingOrAppending) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "meta-ro");
        j.append(1, "alpha");
        j.append(2, "beta");
    }
    // A torn tail (crash mid-append) must be *reported* by scan_file,
    // never repaired: the owning runtime may still hold the file.
    const std::string intact = slurp(p);
    BinaryWriter torn;
    torn.u16(3);
    torn.u32(100);
    torn.u32(0);
    spit(p, intact + torn.bytes() + "partial");
    const auto size_before = std::filesystem::file_size(p);

    Journal::ScanResult scan;
    Journal::scan_file(p, scan);
    EXPECT_EQ(scan.meta, "meta-ro");
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].payload, "alpha");
    EXPECT_EQ(scan.records[1].payload, "beta");
    EXPECT_TRUE(scan.tail_truncated);
    EXPECT_GT(scan.dropped_bytes, 0u);
    // The file is byte-for-byte untouched — torn tail and all.
    EXPECT_EQ(std::filesystem::file_size(p), size_before);
    EXPECT_EQ(slurp(p).size(), size_before);

    // And the scan agrees with what open() would recover.
    Journal::ScanResult opened;
    Journal::open(p, opened);
    EXPECT_EQ(opened.meta, scan.meta);
    ASSERT_EQ(opened.records.size(), scan.records.size());
    for (std::size_t i = 0; i < opened.records.size(); ++i) {
        EXPECT_EQ(opened.records[i].type, scan.records[i].type);
        EXPECT_EQ(opened.records[i].payload, scan.records[i].payload);
    }
}

TEST_F(JournalTest, ScanFileWhileWriterHoldsAppendHandle) {
    // The daemon's point-in-time path: a read-only scan races no one —
    // the writer's appended records show up on the next scan.
    const std::string p = path("wal");
    Journal j = Journal::create(p, "m");
    j.append(1, "one");

    Journal::ScanResult scan;
    Journal::scan_file(p, scan);
    ASSERT_EQ(scan.records.size(), 1u);

    j.append(2, "two");  // writer continues on its own handle
    Journal::scan_file(p, scan);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[1].payload, "two");
    EXPECT_FALSE(scan.tail_truncated);

    j.append(3, "three");  // the scan did not break the writer
    Journal::scan_file(p, scan);
    ASSERT_EQ(scan.records.size(), 3u);
}

TEST_F(JournalTest, ScanFileThrowsLikeOpenOnBadHeaders) {
    Journal::ScanResult scan;
    EXPECT_THROW(Journal::scan_file(path("missing"), scan), JournalError);
    spit(path("garbage"), "definitely not a journal header at all");
    EXPECT_THROW(Journal::scan_file(path("garbage"), scan), JournalError);
}

TEST_F(JournalTest, TornTailIsTruncatedNotReplayed) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "m");
        j.append(1, "alpha");
        j.append(2, "beta");
    }
    const std::string intact = slurp(p);
    // Simulate a crash mid-append: a record frame whose payload never
    // made it to disk.
    BinaryWriter torn;
    torn.u16(3);
    torn.u32(100);  // claims 100 payload bytes...
    torn.u32(0);
    spit(p, intact + torn.bytes() + "only-a-few");  // ...delivers 10

    Journal::ScanResult scan;
    Journal::open(p, scan);
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_TRUE(scan.tail_truncated);
    EXPECT_GT(scan.dropped_bytes, 0u);
    // The truncation is physical: a second open sees a clean log.
    EXPECT_EQ(slurp(p), intact);
    Journal::ScanResult scan2;
    Journal::open(p, scan2);
    EXPECT_FALSE(scan2.tail_truncated);
    ASSERT_EQ(scan2.records.size(), 2u);
}

TEST_F(JournalTest, CorruptTailChecksumIsDetectedAndDropped) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "m");
        j.append(1, "alpha");
        j.append(2, "beta");
    }
    std::string bytes = slurp(p);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x5A);  // flip a payload bit
    spit(p, bytes);

    Journal::ScanResult scan;
    Journal::open(p, scan);
    ASSERT_EQ(scan.records.size(), 1u);
    EXPECT_EQ(scan.records[0].payload, "alpha");
    EXPECT_TRUE(scan.tail_truncated);
}

TEST_F(JournalTest, AppendAfterTruncationContinuesCleanly) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "m");
        j.append(1, "alpha");
    }
    spit(p, slurp(p) + "garbage-tail");
    Journal::ScanResult scan;
    Journal j = Journal::open(p, scan);
    EXPECT_TRUE(scan.tail_truncated);
    j.append(2, "beta");
    Journal::ScanResult scan2;
    Journal::open(p, scan2);
    ASSERT_EQ(scan2.records.size(), 2u);
    EXPECT_EQ(scan2.records[1].payload, "beta");
    EXPECT_FALSE(scan2.tail_truncated);
}

TEST_F(JournalTest, BadMagicOrMetaChecksumThrows) {
    const std::string p = path("wal");
    { Journal::create(p, "meta"); }
    std::string bytes = slurp(p);
    {
        std::string evil = bytes;
        evil[0] = 'X';
        spit(p, evil);
        Journal::ScanResult scan;
        EXPECT_THROW(Journal::open(p, scan), JournalError);
    }
    {
        std::string evil = bytes;
        evil[bytes.size() - 1] = static_cast<char>(evil[bytes.size() - 1] ^ 0xFF);
        spit(p, evil);  // meta crc no longer matches
        Journal::ScanResult scan;
        EXPECT_THROW(Journal::open(p, scan), JournalError);
    }
    Journal::ScanResult scan;
    EXPECT_THROW(Journal::open(path("missing"), scan), JournalError);
}

TEST_F(JournalTest, DetachedJournalIsANoOp) {
    Journal j;
    EXPECT_FALSE(j.attached());
    j.append(1, "dropped");  // must not crash or write anywhere
    EXPECT_EQ(j.size_bytes(), 0u);
}

// The exhaustive torn-write matrix: tear the file at *every* byte
// offset of the record region. Whatever the offset, open() must land
// on a clean record prefix — never throw, never surface a partial
// record — and must truncate the file so a second open is clean.
TEST_F(JournalTest, TornTailMatrixAtEveryByteOffset) {
    const std::string p = path("wal");
    std::uint64_t header_end = 0;
    {
        Journal j = Journal::create(p, "matrix-meta");
        header_end = j.size_bytes();
        j.append(7, "first-payload");
        j.append(8, "");
        j.append(9, std::string("second\0payload", 14));
    }
    const std::string intact = slurp(p);
    // Frame boundaries: offsets at which a tear still leaves k whole
    // records (frame = 10 fixed bytes + payload).
    const std::uint64_t b1 = header_end + 10 + 13;
    const std::uint64_t b2 = b1 + 10;
    const std::uint64_t b3 = b2 + 10 + 14;
    ASSERT_EQ(intact.size(), b3);

    for (std::uint64_t cut = header_end; cut <= intact.size(); ++cut) {
        spit(p, intact.substr(0, cut));
        Journal::ScanResult scan;
        ASSERT_NO_THROW(Journal::open(p, scan)) << "cut at " << cut;
        const std::size_t expect =
            cut >= b3 ? 3u : (cut >= b2 ? 2u : (cut >= b1 ? 1u : 0u));
        ASSERT_EQ(scan.records.size(), expect) << "cut at " << cut;
        EXPECT_EQ(scan.tail_truncated, cut != b1 && cut != b2 && cut != b3 &&
                                           cut != header_end)
            << "cut at " << cut;
        if (!scan.records.empty()) {
            EXPECT_EQ(scan.records[0].payload, "first-payload");
        }
        // The truncation is physical: a re-open reports a clean log
        // and an append continues it.
        Journal::ScanResult again;
        Journal j = Journal::open(p, again);
        EXPECT_FALSE(again.tail_truncated) << "cut at " << cut;
        j.append(42, "resumed");
        Journal::ScanResult resumed;
        Journal::open(p, resumed);
        ASSERT_EQ(resumed.records.size(), expect + 1) << "cut at " << cut;
        EXPECT_EQ(resumed.records.back().payload, "resumed");
    }
}

TEST_F(JournalTest, FsyncOnAppendKnob) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "m", /*fsync_on_append=*/true);
        EXPECT_TRUE(j.fsync_on_append());
        j.append(1, "durable");
        j.set_fsync_on_append(false);
        EXPECT_FALSE(j.fsync_on_append());
        j.append(2, "buffered");
        j.set_fsync_on_append(true);
        EXPECT_TRUE(j.fsync_on_append());
        j.append(3, "durable-again");
    }
    // The knob changes durability, never bytes: the log replays the
    // same either way.
    Journal::ScanResult scan;
    Journal j = Journal::open(p, scan, /*fsync_on_append=*/true);
    EXPECT_TRUE(j.fsync_on_append());
    ASSERT_EQ(scan.records.size(), 3u);
    EXPECT_EQ(scan.records[0].payload, "durable");
    EXPECT_EQ(scan.records[1].payload, "buffered");
    EXPECT_EQ(scan.records[2].payload, "durable-again");
}

TEST_F(JournalTest, RewriteCompactsAtomically) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "m");
        for (int i = 0; i < 8; ++i) {
            j.append(static_cast<std::uint16_t>(i + 1), std::string(100, 'x'));
        }
    }
    const auto before = std::filesystem::file_size(p);

    Journal::RewriteStats stats;
    Journal j = Journal::rewrite(p, "m", {JournalRecord{9, "suffix"}}, &stats);
    EXPECT_EQ(stats.records, 1u);
    EXPECT_EQ(stats.bytes_before, before);
    EXPECT_LT(stats.bytes_after, stats.bytes_before);
    EXPECT_FALSE(std::filesystem::exists(p + ".tmp"));

    // The rewritten log is a normal journal: same meta, the kept
    // record, and the returned handle appends to it.
    j.append(10, "appended");
    Journal::ScanResult scan;
    Journal::open(p, scan);
    EXPECT_EQ(scan.meta, "m");
    ASSERT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.records[0].type, 9);
    EXPECT_EQ(scan.records[0].payload, "suffix");
    EXPECT_EQ(scan.records[1].payload, "appended");

    // Rewrite to empty = a fresh log with only the header.
    Journal::rewrite(p, "m", {});
    Journal::ScanResult empty;
    Journal::open(p, empty);
    EXPECT_EQ(empty.meta, "m");
    EXPECT_TRUE(empty.records.empty());
}

// ---- live-tail contract (pinned for the follower read tier) --------
//
// scan_file is the one journal entry point replicas may use against a
// file another process owns. These tests pin its read-only semantics:
// it never throws on damaged tails, never writes, and its cursor
// fields (header_end / valid_end / file_size) delimit exactly the
// prefix a tailer may consume.

TEST_F(JournalTest, ScanFileCursorFieldsDelimitTheValidPrefix) {
    const std::string p = path("wal");
    std::uint64_t header_end = 0;
    {
        Journal j = Journal::create(p, "cursor-meta");
        header_end = j.size_bytes();
        j.append(1, "alpha");
        j.append(2, "beta-longer");
    }
    const std::string intact = slurp(p);
    const std::uint64_t b1 = header_end + 10 + 5;
    const std::uint64_t b2 = b1 + 10 + 11;
    ASSERT_EQ(intact.size(), b2);

    // Clean log: the valid prefix is the whole file.
    Journal::ScanResult scan;
    Journal::scan_file(p, scan);
    EXPECT_EQ(scan.header_end, header_end);
    EXPECT_EQ(scan.valid_end, b2);
    EXPECT_EQ(scan.file_size, b2);

    // In-progress append (torn tail): valid_end stops at the last
    // record boundary, file_size reports the physical tail beyond it.
    spit(p, intact + std::string(7, '\x7f'));
    Journal::ScanResult torn;
    ASSERT_NO_THROW(Journal::scan_file(p, torn));
    EXPECT_EQ(torn.header_end, header_end);
    EXPECT_EQ(torn.valid_end, b2);
    EXPECT_EQ(torn.file_size, b2 + 7);
    EXPECT_TRUE(torn.tail_truncated);
    ASSERT_EQ(torn.records.size(), 2u);

    // A tear *inside* a record pulls valid_end back to the previous
    // boundary; a scan never rounds forward into damaged bytes.
    spit(p, intact.substr(0, b2 - 3));
    Journal::ScanResult mid;
    ASSERT_NO_THROW(Journal::scan_file(p, mid));
    EXPECT_EQ(mid.valid_end, b1);
    EXPECT_EQ(mid.file_size, b2 - 3);
    ASSERT_EQ(mid.records.size(), 1u);
    EXPECT_EQ(mid.records[0].payload, "alpha");
}

TEST_F(JournalTest, ScanFileNeverRepairsTornOrCorruptTails) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "m");
        j.append(1, "alpha");
        j.append(2, "beta");
    }
    std::string bytes = slurp(p);
    bytes.back() = static_cast<char>(bytes.back() ^ 0x10);  // corrupt last record
    bytes += "and-a-torn-frame-behind-it";                  // plus torn garbage
    spit(p, bytes);

    // Repeated scans are stable, silent, and leave the file untouched:
    // the tailer keeps the last good prefix, the *writer* decides
    // whether to truncate (via open) — never the reader.
    for (int round = 0; round < 3; ++round) {
        Journal::ScanResult scan;
        ASSERT_NO_THROW(Journal::scan_file(p, scan)) << "round " << round;
        ASSERT_EQ(scan.records.size(), 1u) << "round " << round;
        EXPECT_EQ(scan.records[0].payload, "alpha");
        EXPECT_TRUE(scan.tail_truncated);
        EXPECT_LT(scan.valid_end, scan.file_size);
        EXPECT_EQ(slurp(p), bytes) << "scan_file wrote to the file";
    }
}

TEST_F(JournalTest, FileIdentityPinsTheJournalGeneration) {
    const std::string p = path("wal");
    {
        Journal j = Journal::create(p, "m");
        j.append(1, "alpha");
    }
    const std::uint64_t id = Journal::file_identity(p);
    EXPECT_NE(id, 0u);
    EXPECT_EQ(Journal::file_identity(path("missing")), 0u);

    // Appends and in-place corruption keep the identity: same inode,
    // same generation — a tailer must not re-bootstrap over these.
    {
        Journal::ScanResult scan;
        Journal j = Journal::open(p, scan);
        j.append(2, "beta");
    }
    EXPECT_EQ(Journal::file_identity(p), id);
    spit(p, slurp(p));  // in-place rewrite keeps the inode
    EXPECT_EQ(Journal::file_identity(p), id);

    // Compaction swaps a new file into place: new generation.
    Journal::rewrite(p, "m", {JournalRecord{3, "compacted"}});
    EXPECT_NE(Journal::file_identity(p), id);
}

}  // namespace
}  // namespace poc::util
