// State-history store for the durable epoch runtime (DESIGN.md §4c):
// periodic full snapshots plus a delta-compacted journal, so restart
// cost is O(snapshot interval) instead of O(history) and a single
// corrupted file never strands the run.
//
// Three pieces, layered on util/journal.hpp:
//
//  * Snapshot files — a versioned, CRC-framed serialization of the
//    complete epoch state, installed *atomically* (write `<path>.tmp`,
//    flush, rename). A reader either sees the previous snapshot or the
//    complete new one, never a torn hybrid. Recovery prefers the
//    newest snapshot that validates end to end (magic, length frame,
//    CRC-32 over the whole body, matching configuration fingerprint)
//    and silently skips anything less.
//
//      file := magic "POCSNAP1"
//            | u64 completed_epochs | u32 meta_len | u64 payload_len
//            | meta bytes | payload bytes
//            | u32 crc32(everything after the magic)
//
//  * Delta codec — varint + XOR run-length encoding of one byte string
//    against a base. Consecutive epochs produce near-identical stage
//    records (same shape, few changed fields), so journaling the XOR
//    delta against the prior epoch's record of the same type shrinks
//    steady-state journal growth. Purely positional: no schema
//    knowledge, byte-stable, and `decode(base, encode(base, next))`
//    is exactly `next`.
//
//  * SnapshotStore / SnapshotSink — the file-management layer: write
//    with atomic install, enumerate `<base>.snap-<epoch>` files, load
//    the newest valid one at or below an epoch, prune old generations,
//    and sweep stale
//    `.tmp` leftovers from crashed installs. SnapshotSink is the
//    emission interface the runtime calls every K epochs; tests
//    substitute their own sink to capture payloads.
//
// Journal compaction itself lives on util::Journal (`rewrite`): an
// atomic temp+rename rewrite of the log to header + suffix records,
// which the runtime uses to drop everything a snapshot already covers.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/journal.hpp"

namespace poc::util {

/// Thrown on malformed delta bytes. Snapshot corruption is *not* an
/// exception path: a bad snapshot file is skipped, not thrown.
class StateHistoryError : public std::runtime_error {
public:
    explicit StateHistoryError(const std::string& what) : std::runtime_error(what) {}
};

/// LEB128 unsigned varint (the delta codec's integer format).
void put_varint(std::string& out, std::uint64_t v);
/// Decode a varint at `pos` (advanced past it). Throws
/// StateHistoryError on truncation or overlong encodings.
std::uint64_t get_varint(std::string_view bytes, std::size_t& pos);

/// Encode `next` as an XOR delta against `base`: alternating
/// (skip, literal) runs over the positions where `next` matches /
/// differs from `base` (base is implicitly zero-padded past its end).
/// Deterministic; `next` of any size against `base` of any size.
std::string xor_delta_encode(std::string_view base, std::string_view next);

/// Invert xor_delta_encode. Throws StateHistoryError when the delta
/// bytes are malformed (truncated runs, lengths out of bounds).
std::string xor_delta_decode(std::string_view base, std::string_view delta);

/// One snapshot file on disk, identified by how many completed epochs
/// it covers (the state is the instant after epoch
/// `completed_epochs - 1` settled).
struct SnapshotInfo {
    std::uint64_t completed_epochs = 0;
    std::string path;

    friend bool operator==(const SnapshotInfo&, const SnapshotInfo&) = default;
};

/// Write one snapshot file at `path` atomically: serialize to
/// `<path>.tmp`, flush to the OS (and fsync where available), then
/// rename over `path`. Throws StateHistoryError on I/O failure.
void write_snapshot_file(const std::string& path, std::uint64_t completed_epochs,
                         std::string_view meta, std::string_view payload);

struct LoadedSnapshot {
    std::uint64_t completed_epochs = 0;
    std::string meta;
    std::string payload;
    std::string path;
};

/// Read and fully validate one snapshot file. Returns nullopt — never
/// throws, never returns partial bytes — when the file is missing,
/// torn, truncated, bit-flipped, or not a snapshot at all.
std::optional<LoadedSnapshot> read_snapshot_file(const std::string& path);

/// File-management layer over `<base>.snap-<epoch>` snapshot files.
class SnapshotStore {
public:
    SnapshotStore() = default;
    /// `base_path` is the artifact the snapshots belong to (the
    /// journal path); snapshots land next to it. `keep` >= 1 newest
    /// generations survive pruning. A `read_only` store is a pure
    /// observer: write() throws, prune()/sweep_stale_temps() are
    /// no-ops — a follower bootstrapping from another process's
    /// snapshots must never delete that writer's in-flight `.tmp`
    /// files or old generations (temp-file ownership is writer-only).
    explicit SnapshotStore(std::string base_path, std::size_t keep = 2,
                           bool read_only = false);

    bool enabled() const noexcept { return !base_path_.empty(); }
    const std::string& base_path() const noexcept { return base_path_; }
    std::size_t keep() const noexcept { return keep_; }
    bool read_only() const noexcept { return read_only_; }

    /// Path of the snapshot covering `completed_epochs` epochs.
    std::string path_for(std::uint64_t completed_epochs) const;

    /// Atomically install a snapshot, then prune old generations.
    /// Returns the installed path. Throws StateHistoryError on a
    /// read-only store.
    std::string write(std::uint64_t completed_epochs, std::string_view meta,
                      std::string_view payload) const;

    /// Snapshots present on disk (by filename), oldest first. Purely
    /// lexical: corrupt files are listed too (validation is load's
    /// job); `.tmp` leftovers are not.
    std::vector<SnapshotInfo> list() const;

    /// The newest snapshot covering at most `target_epochs` completed
    /// epochs that validates end to end (framing, CRC, a header epoch
    /// count matching its file name) *and* carries the expected
    /// configuration fingerprint. Corrupt or foreign generations are
    /// skipped (older ones are the fallback); nullopt when none ≤ target
    /// survives. Readers ground through sim::ground_replay, which also
    /// falls back past generations whose payload does not decode.
    std::optional<LoadedSnapshot> load_at(std::uint64_t target_epochs,
                                          std::string_view expect_meta) const;

    /// Delete all but the newest `keep` snapshots. Returns how many
    /// files were removed (always 0 on a read-only store).
    std::size_t prune() const;

    /// Remove `<base>.snap-*.tmp` leftovers from installs that died
    /// before their rename. Returns how many were removed (always 0
    /// on a read-only store — only the writer knows whether a `.tmp`
    /// is stale or mid-install).
    std::size_t sweep_stale_temps() const;

private:
    std::string base_path_;
    std::size_t keep_ = 2;
    bool read_only_ = false;
};

/// Emission interface the runtime calls every K completed epochs.
class SnapshotSink {
public:
    virtual ~SnapshotSink() = default;
    virtual void emit(std::uint64_t completed_epochs, std::string_view meta,
                      std::string_view payload) = 0;
};

/// The default sink: write-through to a SnapshotStore.
class FileSnapshotSink final : public SnapshotSink {
public:
    explicit FileSnapshotSink(SnapshotStore store) : store_(std::move(store)) {}

    void emit(std::uint64_t completed_epochs, std::string_view meta,
              std::string_view payload) override {
        store_.write(completed_epochs, meta, payload);
    }

    const SnapshotStore& store() const noexcept { return store_; }

private:
    SnapshotStore store_;
};

}  // namespace poc::util
