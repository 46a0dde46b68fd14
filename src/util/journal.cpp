#include "util/journal.hpp"

#include <array>
#include <bit>
#include <cstring>
#include <filesystem>

#include "obs/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define POC_JOURNAL_HAVE_FSYNC 1
#else
#define POC_JOURNAL_HAVE_FSYNC 0
#endif

namespace poc::util {

/// Holds the descriptor fsync needs; data still flows through the
/// ofstream (buffered), this fd exists only to reach the same inode.
struct Journal::Fsyncer {
#if POC_JOURNAL_HAVE_FSYNC
    int fd = -1;
    explicit Fsyncer(const std::string& path) : fd(::open(path.c_str(), O_WRONLY)) {}
    ~Fsyncer() {
        if (fd >= 0) ::close(fd);
    }
    void sync() const {
        if (fd >= 0) ::fsync(fd);
    }
#else
    explicit Fsyncer(const std::string&) {}
    void sync() const {}
#endif
    Fsyncer(const Fsyncer&) = delete;
    Fsyncer& operator=(const Fsyncer&) = delete;
};

Journal::Journal() = default;
Journal::Journal(Journal&&) noexcept = default;
Journal& Journal::operator=(Journal&&) noexcept = default;
Journal::~Journal() = default;

namespace {

constexpr char kMagic[8] = {'P', 'O', 'C', 'W', 'A', 'L', '0', '1'};
constexpr std::size_t kHeaderFixed = sizeof(kMagic) + sizeof(std::uint32_t);
/// Upper bound on one record's payload; a length field beyond this is
/// treated as tail corruption rather than attempted as an allocation.
constexpr std::uint32_t kMaxPayload = 1u << 30;

static_assert(std::endian::native == std::endian::little,
              "crc32_update folds eight bytes with one little-endian load");

/// Slicing-by-8 tables: row 0 is the bytewise table of the reflected
/// IEEE polynomial, and row k is row 0 advanced over k more zero bytes,
/// the contribution of a byte that k further bytes follow in its step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
    static const CrcTables tables = [] {
        CrcTables t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k) {
                c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            }
            t[0][i] = c;
        }
        for (std::size_t k = 1; k < t.size(); ++k) {
            for (std::uint32_t i = 0; i < 256; ++i) {
                t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
            }
        }
        return t;
    }();
    return tables;
}

}  // namespace

std::uint32_t crc32_update(std::uint32_t crc, std::string_view bytes) {
    const CrcTables& t = crc_tables();
    const char* data = bytes.data();
    std::size_t n = bytes.size();
    // Eight bytes per step: the register folds into the first four, and
    // each byte is looked up in the row for the number of bytes after
    // it in the step. The values equal the bytewise loop's below.
    for (; n >= 8; data += 8, n -= 8) {
        std::uint32_t lo;
        std::uint32_t hi;
        std::memcpy(&lo, data, sizeof lo);
        std::memcpy(&hi, data + 4, sizeof hi);
        lo ^= crc;
        crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
              t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
              t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++data, --n) {
        crc = t[0][(crc ^ static_cast<unsigned char>(*data)) & 0xFFu] ^ (crc >> 8);
    }
    return crc;
}

namespace {

/// CRC over the record frame contents: the 2-byte type followed by the
/// payload, so a flipped type byte fails verification too.
std::uint32_t frame_crc(std::uint16_t type, std::string_view payload) {
    std::uint32_t crc = 0xFFFFFFFFu;
    const char type_bytes[2] = {static_cast<char>(type & 0xFF),
                                static_cast<char>((type >> 8) & 0xFF)};
    crc = crc32_update(crc, std::string_view(type_bytes, 2));
    crc = crc32_update(crc, payload);
    return crc ^ 0xFFFFFFFFu;
}

template <typename T>
T load(const std::string& bytes, std::size_t at) {
    T v;
    std::char_traits<char>::copy(reinterpret_cast<char*>(&v), bytes.data() + at, sizeof(T));
    return v;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes) {
    return crc32_update(0xFFFFFFFFu, bytes) ^ 0xFFFFFFFFu;
}

Journal Journal::create(const std::string& path, std::string_view meta,
                        bool fsync_on_append) {
    Journal j;
    j.path_ = path;
    j.out_.open(path, std::ios::binary | std::ios::trunc);
    if (!j.out_) throw JournalError("cannot create journal at " + path);

    BinaryWriter header;
    for (const char c : kMagic) header.u8(static_cast<std::uint8_t>(c));
    header.u32(static_cast<std::uint32_t>(meta.size()));
    j.out_.write(header.bytes().data(), static_cast<std::streamsize>(header.bytes().size()));
    j.out_.write(meta.data(), static_cast<std::streamsize>(meta.size()));
    const std::uint32_t crc = crc32(meta);
    j.out_.write(reinterpret_cast<const char*>(&crc), sizeof crc);
    j.out_.flush();
    if (!j.out_) throw JournalError("journal header write failed at " + path);
    j.size_bytes_ = kHeaderFixed + meta.size() + sizeof crc;
    j.set_fsync_on_append(fsync_on_append);
    return j;
}

namespace {

/// Shared header+record scan over an in-memory image of the file.
/// Returns the byte offset of the end of the valid record prefix;
/// everything past it is a torn or corrupt tail.
std::size_t scan_bytes(const std::string& path, const std::string& bytes,
                       Journal::ScanResult& scan) {
    // Header: magic + meta (its own CRC). A bad header means we cannot
    // trust anything in the file — refuse rather than guess.
    if (bytes.size() < kHeaderFixed ||
        bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
        throw JournalError("journal at " + path + " has a bad or missing header");
    }
    const auto meta_len = load<std::uint32_t>(bytes, sizeof(kMagic));
    const std::size_t meta_end = kHeaderFixed + meta_len + sizeof(std::uint32_t);
    if (meta_len > kMaxPayload || meta_end > bytes.size()) {
        throw JournalError("journal at " + path + " has a truncated metadata block");
    }
    scan.meta = bytes.substr(kHeaderFixed, meta_len);
    if (load<std::uint32_t>(bytes, kHeaderFixed + meta_len) != crc32(scan.meta)) {
        throw JournalError("journal at " + path + " has corrupt metadata");
    }

    // Record scan: stop at the first torn or checksum-failing frame.
    std::size_t pos = meta_end;
    std::size_t valid_end = meta_end;
    while (pos + kJournalFrameBytes <= bytes.size()) {
        const auto type = load<std::uint16_t>(bytes, pos);
        const auto len = load<std::uint32_t>(bytes, pos + sizeof(std::uint16_t));
        const auto crc =
            load<std::uint32_t>(bytes, pos + sizeof(std::uint16_t) + sizeof(std::uint32_t));
        if (len > kMaxPayload || pos + kJournalFrameBytes + len > bytes.size()) break;  // torn
        const std::string_view payload(bytes.data() + pos + kJournalFrameBytes, len);
        if (frame_crc(type, payload) != crc) break;  // corrupt
        scan.records.push_back(JournalRecord{type, std::string(payload)});
        pos += kJournalFrameBytes + len;
        valid_end = pos;
    }
    if (valid_end < bytes.size()) {
        scan.tail_truncated = true;
        scan.dropped_bytes = bytes.size() - valid_end;
    }
    scan.header_end = meta_end;
    scan.valid_end = valid_end;
    scan.file_size = bytes.size();
    return valid_end;
}

std::string slurp_or_throw(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw JournalError("cannot open journal at " + path);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

}  // namespace

void Journal::scan_file(const std::string& path, ScanResult& scan) {
    scan = ScanResult{};
    const std::string bytes = slurp_or_throw(path);
    scan_bytes(path, bytes, scan);
}

std::uint64_t Journal::file_identity(const std::string& path) {
#if POC_JOURNAL_HAVE_FSYNC
    struct ::stat st{};
    if (::stat(path.c_str(), &st) != 0) return 0;
    // dev in the high bits, inode in the low: distinct inodes on one
    // filesystem (the rewrite temp vs the old log) always differ.
    return (static_cast<std::uint64_t>(st.st_dev) << 48) ^
           static_cast<std::uint64_t>(st.st_ino);
#else
    (void)path;
    return 0;
#endif
}

Journal Journal::open(const std::string& path, ScanResult& scan, bool fsync_on_append) {
    scan = ScanResult{};
    const std::string bytes = slurp_or_throw(path);

    // Scan the valid record prefix, then truncate the file back to the
    // last good record so the append handle continues a clean log.
    const std::size_t valid_end = scan_bytes(path, bytes, scan);
    if (scan.tail_truncated) {
        std::filesystem::resize_file(path, valid_end);
        POC_OBS_INC("util.journal.truncated_tails");
        POC_OBS_COUNT("util.journal.dropped_bytes", scan.dropped_bytes);
    }

    Journal j;
    j.path_ = path;
    j.out_.open(path, std::ios::binary | std::ios::app);
    if (!j.out_) throw JournalError("cannot reopen journal for append at " + path);
    j.size_bytes_ = valid_end;
    j.set_fsync_on_append(fsync_on_append);
    return j;
}

Journal Journal::rewrite(const std::string& path, std::string_view meta,
                         const std::vector<JournalRecord>& records, RewriteStats* stats,
                         bool fsync_on_append) {
    std::uint64_t bytes_before = 0;
    {
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        if (!ec) bytes_before = size;
    }
    const std::string tmp = path + ".tmp";
    {
        // Reuse create/append for the serialization so the rewritten
        // bytes are frame-for-frame what a fresh log would contain.
        Journal draft = Journal::create(tmp, meta);
        for (const JournalRecord& rec : records) draft.append(rec.type, rec.payload);
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw JournalError("journal rewrite rename failed at " + path + ": " + ec.message());
    }

    Journal j;
    j.path_ = path;
    j.out_.open(path, std::ios::binary | std::ios::app);
    if (!j.out_) throw JournalError("cannot reopen rewritten journal at " + path);
    j.size_bytes_ = std::filesystem::file_size(path);
    j.set_fsync_on_append(fsync_on_append);
    if (stats) {
        stats->records = records.size();
        stats->bytes_before = bytes_before;
        stats->bytes_after = j.size_bytes_;
    }
    POC_OBS_INC("util.journal.rewrites");
    return j;
}

void Journal::append(std::uint16_t type, std::string_view payload) {
    if (!out_.is_open()) return;  // detached journal: durability disabled
    BinaryWriter frame;
    frame.u16(type);
    frame.u32(static_cast<std::uint32_t>(payload.size()));
    frame.u32(frame_crc(type, payload));
    out_.write(frame.bytes().data(), static_cast<std::streamsize>(frame.bytes().size()));
    out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out_.flush();
    if (!out_) throw JournalError("journal append failed at " + path_);
    if (fsync_) fsync_->sync();
    size_bytes_ += kJournalFrameBytes + payload.size();
    POC_OBS_INC("util.journal.appends");
    POC_OBS_COUNT("util.journal.bytes", kJournalFrameBytes + payload.size());
}

void Journal::set_fsync_on_append(bool enabled) {
    if (!enabled) {
        fsync_.reset();
        return;
    }
    if (!fsync_ && out_.is_open()) fsync_ = std::make_unique<Fsyncer>(path_);
}

}  // namespace poc::util
