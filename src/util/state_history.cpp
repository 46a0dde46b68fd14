#include "util/state_history.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "obs/metrics.hpp"
#include "util/journal.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define POC_HAVE_FSYNC 1
#else
#define POC_HAVE_FSYNC 0
#endif

namespace poc::util {

namespace {

constexpr char kSnapMagic[8] = {'P', 'O', 'C', 'S', 'N', 'A', 'P', '1'};
/// magic | u64 epochs | u32 meta_len | u64 payload_len ... | u32 crc.
constexpr std::size_t kSnapFixed = sizeof(kSnapMagic) + sizeof(std::uint64_t) +
                                   sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                                   sizeof(std::uint32_t);
/// Length fields beyond this are treated as corruption, not attempted
/// as allocations (mirrors util/journal.hpp's kMaxPayload).
constexpr std::uint64_t kMaxSnapField = 1ull << 32;

/// Fold shorter-than-this match runs into the neighbouring literal:
/// a (skip, literal) pair costs >= 2 varint bytes, so breaking a
/// literal for a 1-3 byte match run would grow the delta.
constexpr std::size_t kMinSkipRun = 4;

template <typename T>
T load_le(const std::string& bytes, std::size_t at) {
    T v;
    std::char_traits<char>::copy(reinterpret_cast<char*>(&v), bytes.data() + at, sizeof(T));
    return v;
}

/// Best-effort fsync of an installed file (crash durability of the
/// rename itself is the filesystem's problem; this pins the data).
void fsync_path(const std::string& path) {
#if POC_HAVE_FSYNC
    const int fd = ::open(path.c_str(), O_WRONLY);
    if (fd >= 0) {
        ::fsync(fd);
        ::close(fd);
    }
#else
    (void)path;
#endif
}

}  // namespace

void put_varint(std::string& out, std::uint64_t v) {
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

std::uint64_t get_varint(std::string_view bytes, std::size_t& pos) {
    std::uint64_t v = 0;
    int shift = 0;
    while (true) {
        if (pos >= bytes.size() || shift > 63) {
            throw StateHistoryError("malformed varint in delta record");
        }
        const auto b = static_cast<std::uint8_t>(bytes[pos++]);
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if ((b & 0x80) == 0) return v;
        shift += 7;
    }
}

std::string xor_delta_encode(std::string_view base, std::string_view next) {
    std::string out;
    put_varint(out, next.size());
    const auto base_byte = [&](std::size_t i) {
        return i < base.size() ? base[i] : char{0};
    };
    std::size_t i = 0;
    while (i < next.size()) {
        // Match run (next == base, base zero-padded past its end).
        std::size_t skip = 0;
        while (i + skip < next.size() && next[i + skip] == base_byte(i + skip)) ++skip;
        // Literal run: differing bytes, swallowing any match run too
        // short to pay for its own (skip, literal) pair.
        std::size_t lit_end = i + skip;
        while (lit_end < next.size()) {
            std::size_t run = 0;
            while (lit_end + run < next.size() &&
                   next[lit_end + run] == base_byte(lit_end + run)) {
                ++run;
            }
            if (run >= kMinSkipRun || lit_end + run == next.size()) break;
            lit_end += run + 1;
        }
        const std::size_t lit = lit_end - (i + skip);
        put_varint(out, skip);
        put_varint(out, lit);
        out.append(next.data() + i + skip, lit);
        i = lit_end;
    }
    return out;
}

std::string xor_delta_decode(std::string_view base, std::string_view delta) {
    std::size_t pos = 0;
    const std::uint64_t total = get_varint(delta, pos);
    if (total > kMaxSnapField) {
        throw StateHistoryError("delta record claims an implausible payload size");
    }
    std::string out;
    out.reserve(total);
    while (out.size() < total) {
        const std::uint64_t skip = get_varint(delta, pos);
        const std::uint64_t lit = get_varint(delta, pos);
        const std::uint64_t room = total - out.size();
        if (skip > room || lit > room - skip || lit > delta.size() - pos) {
            throw StateHistoryError("delta record runs past its declared payload");
        }
        for (std::uint64_t k = 0; k < skip; ++k) {
            const std::size_t i = out.size();
            out.push_back(i < base.size() ? base[i] : char{0});
        }
        out.append(delta.data() + pos, lit);
        pos += lit;
    }
    if (pos != delta.size()) {
        throw StateHistoryError("delta record has trailing bytes");
    }
    return out;
}

void write_snapshot_file(const std::string& path, std::uint64_t completed_epochs,
                         std::string_view meta, std::string_view payload) {
    const auto start = std::chrono::steady_clock::now();
    BinaryWriter body;
    body.u64(completed_epochs);
    body.u32(static_cast<std::uint32_t>(meta.size()));
    body.u64(payload.size());
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) throw StateHistoryError("cannot create snapshot temp at " + tmp);
        out.write(kSnapMagic, sizeof kSnapMagic);
        out.write(body.bytes().data(), static_cast<std::streamsize>(body.bytes().size()));
        out.write(meta.data(), static_cast<std::streamsize>(meta.size()));
        out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        // One CRC over the whole body: any flipped bit anywhere after
        // the magic — lengths, meta, payload — fails validation.
        std::string crc_input = body.bytes();
        crc_input.append(meta.data(), meta.size());
        crc_input.append(payload.data(), payload.size());
        const std::uint32_t crc = crc32(crc_input);
        out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
        out.flush();
        if (!out) throw StateHistoryError("snapshot write failed at " + tmp);
    }
    fsync_path(tmp);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        throw StateHistoryError("snapshot install rename failed at " + path + ": " +
                                ec.message());
    }
    const auto dur = std::chrono::steady_clock::now() - start;
    const double write_ms = std::chrono::duration<double, std::milli>(dur).count();
    POC_OBS_INC("util.state_history.snapshots_written");
    POC_OBS_COUNT("util.state_history.snapshot_bytes",
                  kSnapFixed + meta.size() + payload.size());
    POC_OBS_HISTOGRAM("util.state_history.snapshot_write_ms", 0.0, 100.0, 50, write_ms);
}

std::optional<LoadedSnapshot> read_snapshot_file(const std::string& path) {
    std::string bytes;
    {
        std::ifstream in(path, std::ios::binary);
        if (!in) return std::nullopt;
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    if (bytes.size() < kSnapFixed ||
        bytes.compare(0, sizeof(kSnapMagic), kSnapMagic, sizeof(kSnapMagic)) != 0) {
        return std::nullopt;
    }
    std::size_t pos = sizeof(kSnapMagic);
    const auto epochs = load_le<std::uint64_t>(bytes, pos);
    pos += sizeof(std::uint64_t);
    const auto meta_len = load_le<std::uint32_t>(bytes, pos);
    pos += sizeof(std::uint32_t);
    const auto payload_len = load_le<std::uint64_t>(bytes, pos);
    pos += sizeof(std::uint64_t);
    if (meta_len > kMaxSnapField || payload_len > kMaxSnapField ||
        bytes.size() != kSnapFixed + meta_len + payload_len) {
        return std::nullopt;  // truncated, torn, or length-corrupt
    }
    const std::string_view crc_input(bytes.data() + sizeof(kSnapMagic),
                                     bytes.size() - sizeof(kSnapMagic) -
                                         sizeof(std::uint32_t));
    if (load_le<std::uint32_t>(bytes, bytes.size() - sizeof(std::uint32_t)) !=
        crc32(crc_input)) {
        return std::nullopt;  // bit flip anywhere in the body
    }
    LoadedSnapshot snap;
    snap.completed_epochs = epochs;
    snap.meta = bytes.substr(pos, meta_len);
    snap.payload = bytes.substr(pos + meta_len, payload_len);
    snap.path = path;
    return snap;
}

SnapshotStore::SnapshotStore(std::string base_path, std::size_t keep, bool read_only)
    : base_path_(std::move(base_path)),
      keep_(std::max<std::size_t>(1, keep)),
      read_only_(read_only) {}

std::string SnapshotStore::path_for(std::uint64_t completed_epochs) const {
    char suffix[32];
    std::snprintf(suffix, sizeof suffix, ".snap-%012llu",
                  static_cast<unsigned long long>(completed_epochs));
    return base_path_ + suffix;
}

std::string SnapshotStore::write(std::uint64_t completed_epochs, std::string_view meta,
                                 std::string_view payload) const {
    if (read_only_) {
        throw StateHistoryError("snapshot write refused: store at " + base_path_ +
                                " is read-only (reader side of the history)");
    }
    const std::string path = path_for(completed_epochs);
    write_snapshot_file(path, completed_epochs, meta, payload);
    prune();
    return path;
}

std::vector<SnapshotInfo> SnapshotStore::list() const {
    std::vector<SnapshotInfo> out;
    if (base_path_.empty()) return out;
    const std::filesystem::path base(base_path_);
    const std::string prefix = base.filename().string() + ".snap-";
    std::error_code ec;
    const auto dir = base.has_parent_path() ? base.parent_path()
                                            : std::filesystem::path(".");
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix) != 0) {
            continue;
        }
        const std::string digits = name.substr(prefix.size());
        if (digits.empty() ||
            digits.find_first_not_of("0123456789") != std::string::npos) {
            continue;  // .tmp leftovers and foreign files
        }
        out.push_back(SnapshotInfo{std::strtoull(digits.c_str(), nullptr, 10),
                                   entry.path().string()});
    }
    std::sort(out.begin(), out.end(), [](const SnapshotInfo& a, const SnapshotInfo& b) {
        return a.completed_epochs < b.completed_epochs;
    });
    return out;
}

std::optional<LoadedSnapshot> SnapshotStore::load_at(std::uint64_t target_epochs,
                                                     std::string_view expect_meta) const {
    const std::vector<SnapshotInfo> snaps = list();
    for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
        if (it->completed_epochs > target_epochs) continue;  // newer than the target
        std::optional<LoadedSnapshot> snap = read_snapshot_file(it->path);
        if (!snap || snap->completed_epochs != it->completed_epochs) {
            POC_OBS_INC("util.state_history.snapshots_rejected");
            continue;  // corrupt or misnamed: fall back to the next-older one
        }
        if (snap->meta != expect_meta) {
            POC_OBS_INC("util.state_history.snapshots_foreign");
            continue;  // a different run configuration's snapshot
        }
        return snap;
    }
    return std::nullopt;
}

std::size_t SnapshotStore::prune() const {
    if (read_only_) return 0;  // deletion authority stays with the writer
    const std::vector<SnapshotInfo> snaps = list();
    std::size_t removed = 0;
    if (snaps.size() <= keep_) return removed;
    for (std::size_t i = 0; i + keep_ < snaps.size(); ++i) {
        std::error_code ec;
        if (std::filesystem::remove(snaps[i].path, ec)) ++removed;
    }
    POC_OBS_COUNT("util.state_history.snapshots_pruned", removed);
    return removed;
}

std::size_t SnapshotStore::sweep_stale_temps() const {
    std::size_t removed = 0;
    // A reader cannot tell a stale temp from the writer's mid-install
    // rename source; sweeping is the writer's recovery step only.
    if (read_only_ || base_path_.empty()) return removed;
    const std::filesystem::path base(base_path_);
    const std::string prefix = base.filename().string() + ".snap-";
    std::error_code ec;
    const auto dir = base.has_parent_path() ? base.parent_path()
                                            : std::filesystem::path(".");
    for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0 &&
            name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
            std::error_code rec;
            if (std::filesystem::remove(entry.path(), rec)) ++removed;
        }
    }
    POC_OBS_COUNT("util.state_history.stale_temps_removed", removed);
    return removed;
}

}  // namespace poc::util
