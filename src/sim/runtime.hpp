// Durable epoch runtime: the POC's per-epoch operational pipeline
// (auction -> provisioning -> flow sim -> settlement) made crash-safe
// and deadline-budgeted.
//
// Durability model (DESIGN.md §4b). Each epoch runs as four explicit,
// restartable stages. As each stage completes, a typed record with its
// full result is appended to a checksummed write-ahead journal
// (util/journal.hpp). A process killed at any stage boundary — or
// mid-stage, after computing a result but before journaling it — is
// restarted by re-running EpochRuntime::run() against the same journal
// path: replay reconstructs the ledger, every auction outcome, and the
// RNG stream position from the journal's valid prefix, truncates any
// torn tail, and resumes from the first stage whose record is missing.
// The recovered run is *bit-identical* to an uninterrupted one: same
// ledger balances, same AuctionResult bytes, same RNG state.
//
// Deadline/retry model. The winner-determination oracle is wrapped in
// market::FallibleOracle and every clearing attempt runs under
// util::Retrier: a per-call deadline budget, jittered exponential
// backoff between attempts, and a circuit breaker across epochs. When
// retries are exhausted (or the breaker fast-fails the epoch), the
// runtime degrades gracefully: it re-clears under the relaxed plain
// load-feasibility constraint with a fresh healthy oracle, flags the
// epoch `degraded_mode`, and keeps serving rather than staying dark —
// the same degradation contract as the chaos engine (sim/chaos.hpp).
//
// State-history model (DESIGN.md §4c). With `snapshot_interval` set,
// every K completed epochs the runtime serializes its *complete* state
// (epoch records, auction outcomes, ledger, RNG position) into a
// versioned, CRC-framed snapshot file installed atomically next to the
// journal, then compacts the journal down to the records the snapshot
// does not cover (none, at a snapshot boundary). Recovery grounds
// through sim::ground_replay (sim/replay.hpp) — the newest snapshot
// that validates end to end and decodes, older generations being the
// fallback — and replays only the journal suffix past it, so restart
// cost is O(snapshot interval) instead of O(history). Journal records
// are delta-encoded against the prior record of the same type (varint
// + XOR runs) whenever that is smaller, shrinking steady-state log
// growth. Recovery is defensive: CRC-valid but
// semantically impossible records (duplicated frames, suffixes the
// surviving snapshot cannot ground) stop replay at the last good
// prefix, the journal is rewritten to that prefix, and the remainder
// is recomputed deterministically — recovery never crashes and never
// installs corrupt state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/ledger.hpp"
#include "core/provisioning.hpp"
#include "sim/chaos.hpp"
#include "sim/engine.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"
#include "util/state_history.hpp"

namespace poc::sim {

/// The four restartable stages of one epoch, in pipeline order, plus
/// the two state-history operations that run between epochs. Hooks and
/// crash injection address all six; kStageCount counts only the
/// pipeline.
enum class Stage : std::uint8_t {
    kAuction = 0,
    kProvisioning = 1,
    kFlowSim = 2,
    kSettlement = 3,
    /// Snapshot emission (between epochs; hooked with the completed-
    /// epoch count in the epoch slot).
    kSnapshotWrite = 4,
    /// Journal compaction right after a snapshot.
    kCompaction = 5,
};

/// Pipeline stages only (kSnapshotWrite/kCompaction excluded — chaos
/// fault draws and the per-epoch crash matrices iterate this).
inline constexpr std::size_t kStageCount = 4;

/// Fault::crash_stage values addressing the state-history operations
/// (a crash while writing the snapshot / compacting the journal). The
/// fault's start_epoch is matched against the completed-epoch count at
/// which the operation fires.
inline constexpr std::uint32_t kCrashStageSnapshot = 4;
inline constexpr std::uint32_t kCrashStageCompaction = 5;

const char* stage_name(Stage stage);

/// Where within a stage a hook fires. kMid fires after the stage's
/// result is computed but *before* its journal record is appended —
/// a crash there models the worst case: work done, nothing durable.
enum class HookPoint : std::uint8_t { kBefore, kMid, kAfter };

/// Thrown by crash-injection hooks to model the process dying. The
/// runtime never catches it; a supervisor (run_with_recovery, or a
/// test harness) does, then constructs a fresh EpochRuntime against
/// the same journal to model the restart.
class CrashInjected final : public std::runtime_error {
public:
    CrashInjected(std::size_t epoch, Stage stage, HookPoint point);

    std::size_t epoch() const noexcept { return epoch_; }
    Stage stage() const noexcept { return stage_; }
    HookPoint point() const noexcept { return point_; }

private:
    std::size_t epoch_;
    Stage stage_;
    HookPoint point_;
};

/// run_with_recovery gave up: the restart budget burned down with no
/// forward progress (journal growth) between consecutive crashes. The
/// run is permanently stuck — a deterministic crash point, or storage
/// that corrupts faster than recovery repairs it.
class RecoveryExhausted final : public std::runtime_error {
public:
    RecoveryExhausted(std::size_t restarts, const std::string& last_error)
        : std::runtime_error("recovery exhausted after " + std::to_string(restarts) +
                             " restart(s); " + last_error),
          restarts_(restarts) {}

    /// Total process restarts before giving up (across all progress
    /// windows, not just the stuck one).
    std::size_t restarts() const noexcept { return restarts_; }

private:
    std::size_t restarts_;
};

/// One epoch's summary row (the runtime's SLA record).
struct EpochRecord {
    std::size_t epoch = 0;
    /// A backbone was provisioned this epoch (auction feasible, on
    /// either the primary or the degraded path).
    bool provisioned = false;
    /// The primary clearing path failed (retries exhausted or breaker
    /// open) and this epoch's backbone came from the relaxed
    /// load-feasibility re-clear.
    bool degraded_mode = false;
    /// The breaker was open when this epoch tried to clear.
    bool breaker_open = false;
    /// This epoch's demand multiplier (drawn from the runtime RNG).
    double demand_factor = 1.0;
    double demand_gbps = 0.0;
    /// routed / offered demand; 0 when unprovisioned.
    double delivered_fraction = 0.0;
    double max_utilization = 0.0;
    double stretch = 1.0;
    /// This epoch's monthly outlay (zero when unprovisioned).
    util::Money outlay;
    /// Oracle-clearing attempts this epoch (1 = first try succeeded).
    std::uint64_t retry_attempts = 0;

    friend bool operator==(const EpochRecord&, const EpochRecord&) = default;
};

/// What RuntimeOptions::on_epoch_commit observes: one epoch's results
/// the instant its epoch-end record is durable. Every reference points
/// into the runtime's own state and is valid only for the duration of
/// the callback — a serving layer must copy what it publishes (the
/// serve daemon builds an immutable EpochView from this).
struct EpochCommit {
    /// The epoch that just committed.
    std::size_t epoch = 0;
    /// Completed epochs so far (== epoch + 1).
    std::size_t completed_epochs = 0;
    /// True when this commit was reconstructed from the journal during
    /// recovery rather than computed fresh (fired once per resume, for
    /// the newest recovered epoch, so a restarted daemon republishes).
    bool replayed = false;
    const EpochRecord& record;
    /// nullopt = unprovisioned epoch.
    const std::optional<market::AuctionResult>& auction;
    /// Cumulative ledger through this epoch.
    const core::Ledger& ledger;
};

/// The engine knobs (EngineOptions) are excluded from the journal's
/// meta fingerprint, so a journaled run may resume with any of them
/// flipped.
struct RuntimeOptions : EngineOptions {
    std::size_t epochs = 4;
    /// Constraint, oracle fidelity, and auction engine knobs; reused
    /// verbatim every epoch.
    core::ProvisioningRequest request;
    /// Each epoch scales the traffic matrix by a factor drawn uniformly
    /// from [1 - jitter, 1 + jitter]. The draw happens even at 0 so the
    /// RNG stream position is exercised (and journaled) every epoch.
    double demand_jitter = 0.05;
    std::uint64_t seed = 2020;
    /// Write-ahead journal path. Empty = durability off (no journal
    /// I/O; the run is still deterministic).
    std::string journal_path;
    /// Retry/backoff budget for each epoch's clearing call and the
    /// breaker that persists across epochs within one process.
    util::RetryPolicy retry;
    util::BreakerPolicy breaker;
    /// Test/chaos hook fired at every stage boundary (kBefore/kAfter)
    /// and mid-stage (kMid). May throw CrashInjected.
    std::function<void(std::size_t, Stage, HookPoint)> stage_hook;
    /// Per-epoch oracle fault hook, invoked on every oracle query of
    /// that epoch's primary clearing path. May throw
    /// util::TransientError (degraded oracle) or sleep (slow oracle).
    /// While a hook is installed the oracle opts out of purity
    /// certification, so every epoch clears cold whatever
    /// `use_delta_reclear` says, and its queries run in serial order on
    /// the clearing thread whatever request.auction.threads says: the
    /// hook is never called concurrently.
    std::function<void(std::size_t)> oracle_fault;
    /// Data plane for the per-epoch flow measurement (DESIGN.md §9):
    /// kGreedy = seed water-filling, kPrimary = sharded shortest-path
    /// routing. A *semantic* knob — epoch records differ between the
    /// modes — so unlike the EngineOptions knobs it IS part of the
    /// journal meta fingerprint: a journaled run cannot resume with it
    /// flipped.
    core::FlowRouting flow_routing = core::FlowRouting::kGreedy;

    // --- State-history knobs (DESIGN.md §4c). Like EngineOptions,
    // results are bit-identical whatever their values, so they are
    // excluded from the meta fingerprint and a journaled run may
    // resume with any of them flipped. ---

    /// Emit a full state snapshot every K completed epochs (0 = off).
    std::size_t snapshot_interval = 0;
    /// Newest snapshot generations the default sink keeps on disk
    /// (older ones are the fallback when the newest is corrupt).
    std::size_t snapshot_keep = 2;
    /// After each snapshot, atomically rewrite the journal down to the
    /// records the snapshot does not cover (none, at a snapshot
    /// boundary) so the log stays O(snapshot interval).
    bool compact_after_snapshot = true;
    /// Snapshot destination override (tests capture payloads). Null =
    /// a util::FileSnapshotSink over SnapshotStore(journal_path,
    /// snapshot_keep). A custom sink that does not durably store
    /// snapshots next to the journal must disable
    /// compact_after_snapshot, or compaction will drop records only
    /// its snapshots could replace.
    util::SnapshotSink* snapshot_sink = nullptr;
    /// fsync the journal after every append (power-failure durability
    /// at per-append syscall cost; see util::Journal).
    bool fsync_journal = false;
    // --- Serving knobs (DESIGN.md §8). Observation only: the callback
    // sees committed results and cannot perturb them, so — like the
    // engine knobs — it is excluded from the meta fingerprint and
    // a journaled run may resume with it attached or detached. ---

    /// Fired after each epoch's end record is durable (and once after
    /// a resume, for the newest recovered epoch, with replayed=true).
    /// The EpochCommit's references die when the callback returns.
    /// Must not throw; must not call back into the runtime.
    std::function<void(const EpochCommit&)> on_epoch_commit;

    /// run_with_recovery's restart budget *per progress window*: after
    /// a crash, up to `restart.max_attempts` consecutive relaunches
    /// that make no forward progress (no journal change) are admitted,
    /// with the policy's jittered backoff between them; any progress
    /// resets the window. Exhaustion throws RecoveryExhausted. The
    /// per-attempt deadline is ignored (runs may take arbitrarily
    /// long).
    util::RetryPolicy restart{.max_attempts = 8};
};

/// The complete durable state of a runtime between epochs — exactly
/// what a snapshot persists and recovery installs. Exposed (with the
/// codec below) so property tests can prove the serialization
/// byte-stable without a runtime in the loop.
struct RuntimeState {
    std::vector<EpochRecord> epochs;
    std::vector<std::optional<market::AuctionResult>> auctions;
    core::Ledger ledger;
    util::RngState rng;
    std::uint64_t breaker_open_epochs = 0;
};

/// Serialize a RuntimeState to the snapshot payload format.
/// Deterministic and byte-stable: encode(decode(encode(s))) ==
/// encode(s).
std::string encode_runtime_state(const RuntimeState& state);

/// Invert encode_runtime_state. Throws util::JournalError on
/// malformed bytes (snapshot CRC framing normally rules that out;
/// this guards against version drift). Readers of the durable history
/// do not call it directly: sim::ground_replay does, and falls back to
/// an older snapshot generation when it throws.
RuntimeState decode_runtime_state(std::string_view bytes);

struct RuntimeOutcome {
    std::vector<EpochRecord> epochs;
    /// Per-epoch auction outcomes (nullopt = unprovisioned epoch).
    std::vector<std::optional<market::AuctionResult>> auctions;
    core::Ledger ledger;
    /// RNG stream position after the final epoch (replay must land on
    /// the exact same state).
    util::RngState final_rng;
    /// Recovery diagnostics for this run() call.
    std::size_t replayed_epochs = 0;
    std::size_t replayed_records = 0;
    bool tail_truncated = false;
    double replay_ms = 0.0;
    /// Epochs that found the breaker open on arrival.
    std::size_t breaker_open_epochs = 0;
    util::RetryStats retry;
    /// State-history diagnostics for this run() call.
    std::size_t snapshots_written = 0;
    std::size_t compactions = 0;
    /// Recovery grounded on a snapshot instead of replaying the
    /// journal from its header.
    bool resumed_from_snapshot = false;
    /// Completed epochs the grounding snapshot covered (0 when none).
    std::uint64_t snapshot_epochs = 0;
    /// Recovery hit a CRC-valid but semantically impossible record
    /// (duplicated frame, ungroundable suffix) and rewrote the journal
    /// to its last good prefix.
    bool journal_repaired = false;
    /// Process restarts the supervisor performed (run_with_recovery
    /// only; 0 from a bare run()).
    std::size_t restarts = 0;
};

/// The runtime. One instance = one process lifetime: the retry breaker
/// persists across its epochs and resets on construction (a restarted
/// process starts with a closed breaker). The pool and traffic matrix
/// must outlive run().
class EpochRuntime {
public:
    EpochRuntime(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                 RuntimeOptions opt);
    ~EpochRuntime();

    EpochRuntime(const EpochRuntime&) = delete;
    EpochRuntime& operator=(const EpochRuntime&) = delete;

    /// Run (or resume) the epoch loop to completion. With a journal
    /// path set, opens/creates the journal, replays its valid prefix,
    /// and resumes from the first incomplete stage. Throws
    /// util::JournalError when the journal belongs to a different
    /// scenario (meta fingerprint mismatch); propagates CrashInjected
    /// from stage hooks.
    RuntimeOutcome run();

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Supervisor loop: converts a chaos fault trace's control-plane
/// faults (kCrash, kOracleDegraded, kSnapshotCorrupt, kTornWrite)
/// into runtime hooks, then runs EpochRuntime under a restart-on-crash
/// loop until it completes. Each kCrash fault kills the process once
/// (at the faulted epoch and stage, mid-stage; crash_stage may also
/// name kCrashStageSnapshot/kCrashStageCompaction); kSnapshotCorrupt
/// and kTornWrite additionally damage the newest snapshot file (bit
/// flip) / the journal tail (torn write) after the kill, before the
/// restart. Each kOracleDegraded fault makes every oracle query of
/// its active epochs throw util::TransientError. Restarts are budgeted
/// by opt.restart: consecutive crashes with no forward progress
/// exhaust it and throw RecoveryExhausted. Requires a journal path
/// (recovery without durability would replay nothing).
RuntimeOutcome run_with_recovery(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                                 const RuntimeOptions& opt, const std::vector<Fault>& trace);

/// Point-in-time query backend (ROADMAP "point-in-time queries"):
/// reconstruct the complete runtime state as of exactly
/// `target_epochs` completed epochs, grounding on the newest valid
/// snapshot ≤ target (sim::ground_replay over a read-only
/// SnapshotStore) and replaying only the journal suffix past it. Strictly read-only — the journal is scanned
/// via Journal::scan_file, never truncated or reopened for append, so
/// this is safe to call while a live runtime owns the same journal
/// (the serve daemon's historical queries do). Returns nullopt when
/// the history cannot prove the state: no journal, a foreign
/// configuration fingerprint, or a journal+snapshot set that does not
/// reach `target_epochs`. The result is bit-identical to what a
/// from-scratch run of `target_epochs` epochs would hold.
std::optional<RuntimeState> materialize_state_at(const market::OfferPool& pool,
                                                 const net::TrafficMatrix& tm,
                                                 const RuntimeOptions& opt,
                                                 std::uint64_t target_epochs);

}  // namespace poc::sim
