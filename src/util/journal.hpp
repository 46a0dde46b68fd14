// Checksummed write-ahead journal for the durable epoch runtime
// (DESIGN.md §4b): an append-only log of typed binary records with a
// CRC32 frame per record, so a process killed mid-write leaves at worst
// a torn tail that the next open detects, truncates, and reports —
// never a silently-replayed corrupt record.
//
// File layout (native byte order; the journal is a local recovery
// artifact, not a wire format):
//
//   header:  magic "POCWAL01" | u32 meta_len | meta bytes | u32 crc32(meta)
//   record:  u16 type | u32 payload_len | u32 crc32(type || payload) | payload
//
// The metadata string fingerprints the run configuration (seed, epoch
// count, pool shape); open() surfaces it so the runtime can refuse to
// replay a journal written by a different configuration.
//
// BinaryWriter/BinaryReader are the serialization substrate shared by
// every journaled type (core::Ledger transfers, market::AuctionResult,
// util::RngState). Readers throw JournalError on truncation instead of
// reading garbage.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace poc::util {

/// Thrown on malformed journal bytes: truncated payloads, bad magic,
/// or metadata that does not match the resuming configuration.
class JournalError : public std::runtime_error {
public:
    explicit JournalError(const std::string& what) : std::runtime_error(what) {}
};

/// Append-only binary serializer (little-endian on every platform we
/// build for; the journal never crosses machines).
class BinaryWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
    void u16(std::uint16_t v) { raw(&v, sizeof v); }
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void i64(std::int64_t v) { raw(&v, sizeof v); }
    void f64(double v) { raw(&v, sizeof v); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    /// Length-prefixed byte string.
    void str(std::string_view s) {
        u64(s.size());
        buf_.append(s.data(), s.size());
    }

    const std::string& bytes() const noexcept { return buf_; }
    void clear() noexcept { buf_.clear(); }

private:
    void raw(const void* p, std::size_t n) {
        buf_.append(static_cast<const char*>(p), n);
    }
    std::string buf_;
};

/// Bounds-checked reader over a serialized payload. Every accessor
/// throws JournalError when the buffer is exhausted early (a torn or
/// corrupt record must never yield garbage values).
class BinaryReader {
public:
    explicit BinaryReader(std::string_view bytes) : buf_(bytes) {}

    std::uint8_t u8() {
        need(1);
        return static_cast<std::uint8_t>(buf_[pos_++]);
    }
    std::uint16_t u16() { return read<std::uint16_t>(); }
    std::uint32_t u32() { return read<std::uint32_t>(); }
    std::uint64_t u64() { return read<std::uint64_t>(); }
    std::int64_t i64() { return read<std::int64_t>(); }
    double f64() { return read<double>(); }
    bool boolean() { return u8() != 0; }
    std::string str() {
        const std::uint64_t n = u64();
        need(n);
        std::string out(buf_.substr(pos_, n));
        pos_ += n;
        return out;
    }

    /// Length prefix of a sequence whose every element encodes to at
    /// least `min_item_bytes` (>= 1) bytes. Throws JournalError when
    /// the remaining bytes cannot hold that many elements, so a corrupt
    /// prefix can never size an allocation beyond the input.
    std::uint64_t count(std::size_t min_item_bytes) {
        const std::uint64_t n = u64();
        if (n > remaining() / min_item_bytes) {
            throw JournalError("journal payload claims " + std::to_string(n) +
                               " elements, more than its " + std::to_string(remaining()) +
                               " remaining bytes can hold");
        }
        return n;
    }

    std::size_t remaining() const noexcept { return buf_.size() - pos_; }
    bool exhausted() const noexcept { return pos_ == buf_.size(); }

private:
    template <typename T>
    T read() {
        need(sizeof(T));
        T v;
        std::char_traits<char>::copy(reinterpret_cast<char*>(&v), buf_.data() + pos_,
                                     sizeof(T));
        pos_ += sizeof(T);
        return v;
    }
    void need(std::uint64_t n) const {
        if (n > buf_.size() - pos_) {
            throw JournalError("journal payload truncated: need " + std::to_string(n) +
                               " bytes, have " + std::to_string(buf_.size() - pos_));
        }
    }

    std::string_view buf_;
    std::size_t pos_ = 0;
};

/// CRC-32 (IEEE 802.3 polynomial, reflected) over a byte string.
std::uint32_t crc32(std::string_view bytes);

/// Advance a CRC-32 register over more bytes, with no pre- or post-
/// inversion: crc32(s) is crc32_update(0xFFFFFFFF, s) ^ 0xFFFFFFFF, and
/// updating over a then b equals one update over a + b.
std::uint32_t crc32_update(std::uint32_t crc, std::string_view bytes);

/// Bytes framing each record ahead of its payload (u16 type | u32
/// payload_len | u32 crc): a record occupies this plus its payload.
inline constexpr std::size_t kJournalFrameBytes =
    sizeof(std::uint16_t) + sizeof(std::uint32_t) + sizeof(std::uint32_t);

struct JournalRecord {
    std::uint16_t type = 0;
    std::string payload;
};

/// The file-backed journal itself. `create` starts a fresh log;
/// `open` scans an existing one, validates every record checksum,
/// truncates any torn/corrupt tail in place, and leaves the file
/// positioned for append so recovery can continue the same log.
class Journal {
public:
    struct ScanResult {
        std::string meta;
        std::vector<JournalRecord> records;
        /// True when a torn or checksum-failing tail was detected. The
        /// bytes are physically truncated away by open() only;
        /// scan_file() reports and leaves them in place.
        bool tail_truncated = false;
        std::uint64_t dropped_bytes = 0;
        /// Byte offset just past the header (magic + meta + meta CRC):
        /// where the first record frame starts.
        std::uint64_t header_end = 0;
        /// Byte offset of the end of the valid record prefix. A tailing
        /// reader resumes its next incremental scan here; bytes in
        /// (valid_end, file_size] are a torn or corrupt tail.
        std::uint64_t valid_end = 0;
        /// Total bytes the scan saw (the file image it read).
        std::uint64_t file_size = 0;
    };

    /// Diagnostics from a rewrite() compaction pass.
    struct RewriteStats {
        std::uint64_t records = 0;
        std::uint64_t bytes_before = 0;
        std::uint64_t bytes_after = 0;
    };

    // All special members out of line: Fsyncer is incomplete here.
    Journal();
    Journal(Journal&&) noexcept;
    Journal& operator=(Journal&&) noexcept;
    ~Journal();

    /// Create (or truncate) the journal at `path` with the given
    /// configuration fingerprint. Throws JournalError on I/O failure.
    static Journal create(const std::string& path, std::string_view meta,
                          bool fsync_on_append = false);

    /// Open an existing journal: validate the header, scan the valid
    /// record prefix, truncate the file to it, and report what was
    /// read. Throws JournalError when the header itself is unreadable.
    static Journal open(const std::string& path, ScanResult& scan,
                        bool fsync_on_append = false);

    /// Read-only scan: validate the header and every record CRC
    /// exactly as open() does, but never truncate the file and never
    /// take an append handle. Safe to run against a journal the
    /// owning runtime still has open for append — the point-in-time
    /// query path (sim::materialize_state_at) and the journal-tailing
    /// follower (serve::Follower), both grounded by sim::ground_replay,
    /// read live journals this way.
    /// A torn tail is reported in `scan`, not repaired. Throws
    /// JournalError when the file is missing or its header is
    /// unreadable, like open().
    ///
    /// Read-only live-tail contract (pinned by tests/util
    /// regression tests; the replicated read tier depends on it):
    ///  * The function performs no write, truncate, rename, or
    ///    open-for-append on `path` — a reader can never damage the
    ///    writer's log, and truncation authority stays with the
    ///    writer (open()).
    ///  * A torn tail — a frame whose declared length runs past EOF,
    ///    exactly what a reader racing an in-progress append observes
    ///    — stops the scan at the last complete valid frame and sets
    ///    tail_truncated; it never throws. A later scan, after the
    ///    writer finishes the append, extends the same valid prefix.
    ///  * A corrupt tail (CRC mismatch: bit flip, overwritten bytes)
    ///    is indistinguishable from a torn one at scan level and is
    ///    handled identically: stop at the last good frame, report.
    ///    Distinguishing "still being written" from "damaged" is the
    ///    caller's job (poll again; no growth past valid_end = damage).
    ///  * scan.records is always exactly the records of
    ///    [header_end, valid_end) — a prefix closed under record
    ///    boundaries, never a partial frame.
    static void scan_file(const std::string& path, ScanResult& scan);

    /// Stable identity of the inode behind `path` (device + inode
    /// hash), or 0 when the file is missing or the platform cannot
    /// say. A tailing reader uses an identity change to detect that
    /// rewrite() renamed a new generation over the path it is
    /// following (the compaction race).
    static std::uint64_t file_identity(const std::string& path);

    /// Atomically replace the journal at `path` with header(meta) +
    /// `records`: serialize to `<path>.tmp`, then rename over `path`.
    /// A crash at any point leaves either the old log or the complete
    /// new one — never a hybrid. Returns the rewritten journal open
    /// for append. This is the compaction primitive: the state-history
    /// layer calls it to drop records a snapshot already covers.
    static Journal rewrite(const std::string& path, std::string_view meta,
                           const std::vector<JournalRecord>& records,
                           RewriteStats* stats = nullptr, bool fsync_on_append = false);

    /// Append one record and flush it to the OS. The record is durable
    /// (from this process's perspective) once append returns; with
    /// fsync_on_append it is also synced to stable storage.
    void append(std::uint16_t type, std::string_view payload);

    /// Durability knob: fsync the file after every append. Off by
    /// default (flush-to-OS only) — the journal's torn-tail scan
    /// already makes an OS-level loss a clean truncation, so fsync
    /// buys power-failure durability at per-append syscall cost.
    void set_fsync_on_append(bool enabled);
    bool fsync_on_append() const noexcept { return fsync_ != nullptr; }

    bool attached() const noexcept { return out_.is_open(); }
    const std::string& path() const noexcept { return path_; }
    /// Bytes written to the file so far (header + records).
    std::uint64_t size_bytes() const noexcept { return size_bytes_; }

private:
    /// RAII holder of the O_WRONLY descriptor used for fsync (the
    /// ofstream has no portable sync hook). Defined in journal.cpp.
    struct Fsyncer;

    std::string path_;
    std::ofstream out_;
    std::uint64_t size_bytes_ = 0;
    std::unique_ptr<Fsyncer> fsync_;
};

}  // namespace poc::util
