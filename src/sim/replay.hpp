// Journal-replay machinery shared by every reader of the runtime's
// durable history: crash recovery (sim::EpochRuntime), read-only
// point-in-time materialization (sim::materialize_state_at), and the
// journal-tailing read replicas (serve::Follower). All three ground
// through ground_replay() and apply records through ReplayCursor —
// bit-identity across leader, recovery, and followers is a property
// test, and a second grounding or replay implementation would be a
// place for it to silently break.
//
// The pieces: the on-disk record-type constants, the per-stage payload
// codecs, delta-frame resolution against the running per-type base map
// (decode_records), the configuration fingerprint stored in the
// journal header (runtime_meta_fingerprint), the one grounding
// decision (ground_replay: which snapshot generation to start from),
// and the ReplayCursor state machine that advances a RuntimeState one
// decoded record at a time with parse-then-commit semantics, skipping
// the records its grounding snapshot already covers.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/runtime.hpp"
#include "util/journal.hpp"
#include "util/state_history.hpp"

namespace poc::sim {

// Journal record types (kRec* values are part of the on-disk format;
// never renumber).
inline constexpr std::uint16_t kRecEpochBegin = 1;
inline constexpr std::uint16_t kRecAuction = 2;
inline constexpr std::uint16_t kRecProvision = 3;
inline constexpr std::uint16_t kRecFlows = 4;
inline constexpr std::uint16_t kRecSettlement = 5;
inline constexpr std::uint16_t kRecEpochEnd = 6;

/// High bit of the record type: the payload is an XOR delta
/// (util::xor_delta_encode) against the previous *full* payload of the
/// same base type in the file. Part of the on-disk format.
inline constexpr std::uint16_t kRecDeltaFlag = 0x8000;

void write_rng_state(util::BinaryWriter& w, const util::RngState& st);
util::RngState read_rng_state(util::BinaryReader& r);

void write_epoch_record(util::BinaryWriter& w, const EpochRecord& rec);
EpochRecord read_epoch_record(util::BinaryReader& r);
/// Encoded size of every EpochRecord: epoch, three flags, five f64
/// measurements, the outlay and the retry count.
inline constexpr std::size_t kEpochRecordBytes = 8 + 3 + 5 * 8 + 8 + 8;

/// In-flight epoch: which stages have durable records, and the
/// reconstructed results of the ones that do.
struct PendingEpoch {
    std::size_t epoch = 0;
    double demand_factor = 1.0;
    bool have_begin = false;
    bool have_auction = false;
    bool have_provision = false;
    bool have_flows = false;
    bool have_settlement = false;

    std::optional<market::AuctionResult> auction;
    bool degraded = false;
    bool breaker_open = false;
    std::uint64_t attempts = 0;
    std::vector<net::LinkId> selected;

    double offered_gbps = 0.0;
    double routed_gbps = 0.0;
    double max_utilization = 0.0;
    double stretch = 1.0;
};

/// One journal record with its delta flag resolved: full payload bytes
/// plus the epoch every record type leads with.
struct DecodedRecord {
    std::uint16_t type = 0;  // base type, flag stripped
    std::string payload;
    std::uint64_t epoch = 0;
};

/// Resolve delta-encoded frames against the running per-type base map.
/// Stops at the first record that cannot be resolved (unknown type,
/// broken delta chain, malformed delta bytes, payload too short to
/// carry an epoch); `out` holds exactly the clean prefix. `bases`
/// ends up holding the last full payload per type of that prefix —
/// the appender state matching the file.
std::size_t decode_records(const std::vector<util::JournalRecord>& records,
                           std::vector<DecodedRecord>& out,
                           std::map<std::uint16_t, std::string>& bases);

/// Configuration fingerprint stored in the journal header. Engine
/// knobs that cannot change results (threads, cache, shard count,
/// serving hooks) are excluded on purpose: a run may resume under a
/// different engine config and still be bit-identical (DESIGN.md §5).
/// Semantic knobs that do change results (flow_routing) are included. Shared between
/// EpochRuntime, materialize_state_at, and serve::Follower so every
/// reader refuses foreign journals with the same rule the runtime
/// uses.
std::string runtime_meta_fingerprint(const market::OfferPool& pool,
                                     const net::TrafficMatrix& tm,
                                     const RuntimeOptions& opt);

/// Replay state machine shared by crash recovery (EpochRuntime::Impl),
/// read-only point-in-time materialization (materialize_state_at), and
/// the journal-tailing follower (serve::Follower): a RuntimeState plus
/// the in-flight epoch, advanced one decoded record at a time.
/// Obtained from ground_replay(), which seeds it from a snapshot or
/// from the run's seed.
struct ReplayCursor {
    RuntimeState state;
    PendingEpoch pending;
    bool has_pending = false;
    std::size_t replayed_epochs = 0;
    /// Completed epochs the grounding snapshot covered (0 = grounded on
    /// the fresh-seed state).
    std::uint64_t grounded = 0;
    /// At least one record has been applied since grounding.
    bool applied_any = false;

    /// What advance() did with one record.
    enum class Step : std::uint8_t {
        kApplied,
        /// Already part of the grounding snapshot: consumed, not applied.
        kCovered,
        /// Semantically impossible against the current state (out-of-
        /// order epoch, duplicated stage, truncated fields). Nothing was
        /// mutated; the good prefix ends before this record.
        kRefused,
    };

    /// The grounding snapshot already holds `rec`: an epoch below
    /// `grounded`, seen before the first apply (a journal that was not
    /// compacted at the snapshot boundary still carries such records).
    bool covers(const DecodedRecord& rec) const noexcept {
        return !applied_any && rec.epoch < grounded;
    }

    /// Consume one record: skip it when covered, otherwise apply it.
    /// Never throws on bad records — a refusal is the return value.
    Step advance(const DecodedRecord& rec);

    /// Apply one record unconditionally. Parse-then-commit: throws
    /// util::ContractViolation or util::JournalError *before* mutating
    /// anything when the record cannot extend the current state.
    void apply(const DecodedRecord& rec);
};

/// No target: ground on the newest generation.
inline constexpr std::uint64_t kNewestEpoch = std::numeric_limits<std::uint64_t>::max();

/// The one grounding decision for every reader of the durable history.
/// Walks the snapshot generations in `store` newest-first, at or below
/// `target_epochs`, and grounds on the first that validates (CRC
/// framing), belongs to this configuration (`meta`), and decodes.
/// Generations failing any of the three are skipped, so an older one —
/// or, when none survives, the fresh state of `seed` — is the fallback.
/// Never throws on bad snapshot bytes.
ReplayCursor ground_replay(const util::SnapshotStore& store, std::string_view meta,
                           std::uint64_t seed, std::uint64_t target_epochs = kNewestEpoch);

}  // namespace poc::sim
