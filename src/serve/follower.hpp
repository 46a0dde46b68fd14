// The replicated read tier's replica process (DESIGN.md §8.6): a
// serve::Follower is a read-only copy of the market daemon that never
// touches the leader's write path. It grounds through
// sim::ground_replay, exactly as crash recovery does: the newest
// snapshot next to the journal that validates and decodes, read through
// a read-only util::SnapshotStore that never sweeps the writer's temps.
// It then tails the live journal suffix with a persistent byte/record
// cursor, applying records through sim::ReplayCursor (the same replay
// path as recovery), and publishes an EpochView per completed
// epoch into its own ViewHub. Because leader commits and follower
// replays run the same state machine over the same bytes, a follower's
// views are *bit-identical* to the leader's at every epoch
// (serve::encode_epoch_view is the comparison; the property tests in
// tests/serve/test_follower.cpp drive the fault matrix).
//
// Robustness model:
//  * Torn tail on a live journal = a write in progress, not damage:
//    the scan stops at the last complete frame, the follower keeps
//    serving its current view, and the next poll retries the tail
//    (tail_until paces polls with a jittered-backoff util::Retrier).
//    Truncation stays writer-only — a follower never repairs a log.
//  * Compaction race: the leader's Journal::rewrite renames a new
//    generation over the path the follower is tailing. The follower
//    detects it (file-identity change, or the valid prefix regressing
//    below its cursor) and re-bootstraps: fresh cursor, newest valid
//    snapshot, replay the new suffix. The ViewHub's monotonic epoch
//    guard guarantees readers never observe the re-bootstrap as time
//    going backwards.
//  * Corrupt tail: indistinguishable from a torn one at scan level.
//    The decision rule is progress: a tail that never extends while
//    content sits unconsumed past the cursor (stall_poll_budget
//    consecutive polls) is damage, not writing. The follower first
//    tries a snapshot re-ground; if the stall persists it reports
//    kCorrupt — it keeps serving its last proven view and *fails
//    structurally* (tail_until throws, the supervisor restarts it)
//    rather than ever applying unproven bytes. A later leader
//    compaction rewrites the journal from clean in-memory state,
//    which the follower picks up as a generation change.
//  * Bounded staleness: queries carry max_lag_epochs; a follower
//    whose lag (newest epoch provable from the tail minus newest
//    epoch applied) exceeds the bound answers ServeError::kStaleView
//    instead of silently serving stale data, and degrades gracefully
//    to point-in-time queries (at_epoch) it can still prove. Lag is
//    exported as the serve.follower.lag_epochs gauge.
//
// Admission/metering stays at the front door (the leader-side
// ServeEngine or a gateway): follower queries are unmetered replica
// reads, which is what makes the read tier horizontally scalable.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>

#include "serve/epoch_view.hpp"
#include "serve/view_hub.hpp"
#include "sim/chaos.hpp"
#include "sim/runtime.hpp"
#include "util/retry.hpp"

namespace poc::serve {

/// No staleness bound: any published view answers.
inline constexpr std::uint64_t kNoLagBound = std::numeric_limits<std::uint64_t>::max();

/// Thrown by chaos apply hooks to model a replica dying mid-apply.
/// The follower never catches it; run_follower_with_recovery (or a
/// test harness) does, then constructs a fresh Follower against the
/// same journal to model the restart.
class FollowerCrash final : public std::runtime_error {
public:
    FollowerCrash(std::size_t record_index, std::uint64_t epoch)
        : std::runtime_error("follower crash injected applying record " +
                             std::to_string(record_index) + " (epoch " +
                             std::to_string(epoch) + ")"),
          record_index_(record_index),
          epoch_(epoch) {}

    std::size_t record_index() const noexcept { return record_index_; }
    std::uint64_t epoch() const noexcept { return epoch_; }

private:
    std::size_t record_index_;
    std::uint64_t epoch_;
};

/// What the follower knows about its tail after the latest poll.
enum class FollowerStatus : std::uint8_t {
    /// Not bootstrapped yet (no poll has run).
    kCold = 0,
    /// Healthy: the whole provable journal prefix is applied.
    kTailing,
    /// The journal file does not exist yet (leader not started).
    kWaitingForJournal,
    /// Bytes past the valid prefix: presumed write-in-progress,
    /// retried next poll.
    kTornTail,
    /// Unconsumable content outlasted the stall budget (and a snapshot
    /// re-ground): structural damage, not an in-progress write.
    kCorrupt,
    /// The journal's configuration fingerprint is not this follower's.
    kForeign,
};

const char* follower_status_name(FollowerStatus status);

struct FollowerOptions {
    /// Must match the leader writing the journal (journal_path, seed,
    /// epochs, …) — the same configuration-fingerprint rule as
    /// recovery. Engine knobs (threads, caches) are free to differ.
    sim::RuntimeOptions runtime;
    /// Cap on records applied per poll(); 0 = no cap. The fault-matrix
    /// tests set 1 to drive every record boundary.
    std::size_t max_records_per_poll = 0;
    /// Consecutive no-progress polls with unconsumed content before
    /// the tail is declared corrupt rather than in-progress (after a
    /// snapshot re-ground has been tried).
    std::size_t stall_poll_budget = 8;
    /// Backoff policy for tail_until()'s poll pacing (real sleeps).
    util::RetryPolicy tail_backoff{.max_attempts = 16,
                                   .deadline_ms = std::numeric_limits<double>::infinity(),
                                   .base_backoff_ms = 1.0,
                                   .max_backoff_ms = 50.0};
    /// Publish into this hub instead of an owned one. A supervisor
    /// shares one hub across follower restarts so readers keep their
    /// view through a replica crash.
    std::shared_ptr<ViewHub> hub;
    /// Test/chaos hook fired before each record application:
    /// (record index within the current generation, base record type,
    /// record epoch). May throw FollowerCrash.
    std::function<void(std::size_t, std::uint16_t, std::uint64_t)> apply_hook;
};

/// One poll's outcome.
struct FollowerPoll {
    FollowerStatus status = FollowerStatus::kCold;
    /// Records applied by this poll.
    std::size_t records_applied = 0;
    /// Epochs completed by this poll.
    std::size_t epochs_applied = 0;
    /// Anything moved: records applied, a re-bootstrap grounded new
    /// state, or the valid prefix grew under the cursor.
    bool progressed = false;
    /// This poll detected a generation change (or unprovable content)
    /// and re-grounded from a snapshot.
    bool rebootstrapped = false;
    /// Bytes past the valid prefix were present (write in progress or
    /// damage; see status).
    bool torn_tail = false;
};

/// Lifetime counters (monotonic across polls, reset by re-bootstrap
/// only where noted).
struct FollowerStats {
    std::uint64_t polls = 0;
    std::uint64_t records_applied = 0;
    std::uint64_t epochs_applied = 0;
    std::uint64_t rebootstraps = 0;
    std::uint64_t torn_tail_polls = 0;
    std::uint64_t views_published = 0;
    /// Publishes the hub's monotonic guard rejected (expected during
    /// re-bootstrap overlap, never during steady tailing).
    std::uint64_t publish_rejects = 0;
    /// Queries rejected with kStaleView.
    std::uint64_t stale_rejects = 0;
};

/// The follower itself. Single tail thread: poll()/tail_until() must
/// be externally serialized (one tailing loop per follower), while
/// every query method and atomic accessor (applied/known/lag, status,
/// cursor position, current()) is safe to call concurrently with the
/// tail thread — queries read the hub's published views and atomics
/// only. stats() is the exception: read it between polls (or from the
/// tail thread).
class Follower {
public:
    /// `pool` and `tm` must be the leader's instance (they are inputs
    /// to the configuration fingerprint) and must outlive the
    /// follower.
    Follower(const market::OfferPool& pool, const net::TrafficMatrix& tm,
             FollowerOptions opt);
    ~Follower();

    Follower(const Follower&) = delete;
    Follower& operator=(const Follower&) = delete;

    /// One tailing step: scan the journal read-only, detect generation
    /// changes, apply newly provable records through the shared replay
    /// path, publish completed epochs. Never throws on torn or corrupt
    /// bytes (that is status); propagates apply_hook exceptions
    /// (FollowerCrash) and programming errors only.
    FollowerPoll poll();

    /// Poll until `target_epochs` epochs are applied, pacing retries
    /// with the jittered-backoff tail_backoff policy (real sleeps).
    /// Progress resets the attempt window, so the budget bounds
    /// *stall* time, not catch-up time. Throws util::RetryExhausted
    /// when the tail stalls for a full window (e.g. a corrupt tail no
    /// compaction ever clears).
    void tail_until(std::uint64_t target_epochs);

    /// Newest published view (nullptr before the first epoch).
    std::shared_ptr<const EpochView> current() const;
    const std::shared_ptr<ViewHub>& hub() const noexcept;

    /// Epochs applied to this follower's state.
    std::uint64_t applied_epochs() const noexcept;
    /// Newest epoch count provable from the last scan (applied epochs
    /// plus epoch-end records decoded but not yet applied).
    std::uint64_t known_epochs() const noexcept;
    /// known - applied: how far the replica trails what the journal
    /// can already prove. 0 while fully caught up (growth the scan has
    /// not seen yet is invisible to the replica, as it must be).
    std::uint64_t lag_epochs() const noexcept;

    FollowerStatus status() const noexcept;
    const FollowerStats& stats() const noexcept;

    /// Tail-cursor position: bytes of the current journal generation
    /// consumed, and records applied from it (diagnostics; the chaos
    /// harness aims its bit flips past this point).
    std::uint64_t cursor_bytes() const noexcept;
    std::uint64_t cursor_records() const noexcept;

    // --- Bounded-staleness queries (unmetered replica reads), answered
    // by the read path the leader uses (serve/epoch_view.hpp). Each
    // carries the caller's staleness contract: if lag_epochs() >
    // max_lag_epochs the reply is kStaleView and the published view is
    // not consulted. ---

    QuoteReply quote(std::string_view bp_name,
                     std::uint64_t max_lag_epochs = kNoLagBound) const;
    PathReply path(net::NodeId src, net::NodeId dst,
                   std::uint64_t max_lag_epochs = kNoLagBound) const;
    SlaReply sla(std::uint64_t max_lag_epochs = kNoLagBound) const;

    /// Point-in-time query the replica can prove regardless of lag
    /// (the graceful degradation path for stale replicas): the market
    /// as of exactly `completed_epochs`, via snapshot + read-only
    /// suffix replay. kHistoryUnavailable when history cannot prove
    /// that epoch.
    HistoryReply at_epoch(std::uint64_t completed_epochs) const;

private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/// Outcome of a supervised follower run.
struct FollowerRunResult {
    std::uint64_t applied_epochs = 0;
    /// Replica process restarts (FollowerCrash recoveries).
    std::size_t restarts = 0;
    /// Snapshot re-groundings across all incarnations.
    std::uint64_t rebootstraps = 0;
    std::shared_ptr<const EpochView> final_view;
    /// The hub shared across incarnations (opt.hub, or the one the
    /// supervisor created).
    std::shared_ptr<ViewHub> hub;
};

/// Replica-side supervisor, the follower analogue of
/// sim::run_with_recovery: consumes a chaos trace's replica faults and
/// polls a Follower to `target_epochs` under a progress-windowed
/// restart budget. kFollowerCrash kills the replica once, mid-apply,
/// on the first record of its start_epoch (the next incarnation
/// re-bootstraps from disk into the *same* shared hub);
/// kFollowerTailCorrupt flips a bit once in the journal suffix past
/// the replica's cursor after it has applied start_epoch epochs.
/// Leader-side fault kinds in the trace are ignored. Consecutive
/// no-progress polls beyond opt.runtime.restart.max_attempts x
/// opt.stall_poll_budget — or crash restarts beyond
/// opt.runtime.restart.max_attempts without progress — throw
/// sim::RecoveryExhausted.
FollowerRunResult run_follower_with_recovery(const market::OfferPool& pool,
                                             const net::TrafficMatrix& tm,
                                             const FollowerOptions& opt,
                                             std::uint64_t target_epochs,
                                             const std::vector<sim::Fault>& trace);

}  // namespace poc::serve
