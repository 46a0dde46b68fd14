#include "serve/follower.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/replay.hpp"
#include "util/contracts.hpp"
#include "util/fault_injection.hpp"
#include "util/journal.hpp"
#include "util/state_history.hpp"

namespace poc::serve {

namespace {

double steady_ms() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace

const char* follower_status_name(FollowerStatus status) {
    switch (status) {
        case FollowerStatus::kCold: return "cold";
        case FollowerStatus::kTailing: return "tailing";
        case FollowerStatus::kWaitingForJournal: return "waiting-for-journal";
        case FollowerStatus::kTornTail: return "torn-tail";
        case FollowerStatus::kCorrupt: return "corrupt";
        case FollowerStatus::kForeign: return "foreign";
    }
    return "unknown";
}

struct Follower::Impl {
    const market::OfferPool& pool;
    const net::TrafficMatrix& tm;
    FollowerOptions opt;
    std::string meta;
    /// The leader's snapshot generations, read-only: a follower never
    /// prunes them or sweeps the leader's in-flight `.tmp` installs.
    util::SnapshotStore store;
    std::shared_ptr<ViewHub> hub;

    // --- Tail-thread state (poll()/tail_until() are externally
    // serialized; nothing below is touched by query threads). ---
    sim::ReplayCursor cursor;
    /// Last full payload per base record type of the consumed prefix —
    /// the delta-decoder state matching the cursor position. A suffix
    /// decode works against a *copy*; the persistent map advances only
    /// for records actually consumed.
    std::map<std::uint16_t, std::string> delta_bases;
    std::size_t consumed_records = 0;
    std::uint64_t consumed_bytes = 0;
    bool bootstrapped = false;
    std::uint64_t generation = 0;
    std::size_t stall_polls = 0;
    bool stall_reground_tried = false;

    // --- Shared with query threads (atomics; the hub carries the
    // views themselves). ---
    std::atomic<std::uint64_t> applied{0};
    std::atomic<std::uint64_t> known{0};
    std::atomic<FollowerStatus> status{FollowerStatus::kCold};
    std::atomic<std::uint64_t> cursor_bytes_pub{0};
    std::atomic<std::uint64_t> cursor_records_pub{0};
    mutable std::atomic<std::uint64_t> stale_rejects{0};

    mutable FollowerStats stats;

    Impl(const market::OfferPool& pool_in, const net::TrafficMatrix& tm_in,
         FollowerOptions opt_in)
        : pool(pool_in),
          tm(tm_in),
          opt(std::move(opt_in)),
          meta(sim::runtime_meta_fingerprint(pool, tm, opt.runtime)),
          store(opt.runtime.journal_path, opt.runtime.snapshot_keep, /*read_only=*/true),
          hub(opt.hub ? opt.hub : std::make_shared<ViewHub>()) {
        POC_EXPECTS(!opt.runtime.journal_path.empty());
    }

    std::uint64_t lag() const noexcept {
        const std::uint64_t k = known.load(std::memory_order_relaxed);
        const std::uint64_t a = applied.load(std::memory_order_relaxed);
        return k > a ? k - a : 0;
    }

    void publish_current() {
        if (cursor.state.epochs.empty()) return;
        auto view = build_epoch_view(pool.graph(), cursor.state, hub->current().get());
        if (hub->publish(std::move(view))) {
            ++stats.views_published;
        } else {
            ++stats.publish_rejects;
        }
    }

    /// Reset the cursor to a fresh grounding (sim::ground_replay: the
    /// newest usable snapshot, or the journal head when none survives)
    /// of the generation the scan observed. Re-announces the grounded
    /// epoch through the hub — the monotonic guard makes that
    /// idempotent or a no-op.
    void ground(const util::Journal::ScanResult& scan) {
        cursor = sim::ground_replay(store, meta, opt.runtime.seed);
        delta_bases.clear();
        consumed_records = 0;
        consumed_bytes = scan.header_end;
        applied.store(cursor.state.epochs.size(), std::memory_order_relaxed);
        ++stats.rebootstraps;
        publish_current();
    }

    struct ConsumeOutcome {
        /// A CRC-valid record was semantically impossible against the
        /// cursor state (replay refused it before mutating anything).
        bool structural = false;
        /// CRC-valid records past the clean prefix the delta decoder
        /// could not resolve (broken chain, unknown type).
        std::size_t undecodable = 0;
    };

    /// Apply newly provable records at the cursor. Advances the
    /// persistent delta bases / byte cursor only per record actually
    /// consumed, so a failed suffix leaves the cursor at the last good
    /// record.
    ConsumeOutcome consume(const util::Journal::ScanResult& scan, FollowerPoll& out) {
        ConsumeOutcome res;
        std::size_t unapplied_epoch_ends = 0;
        if (consumed_records < scan.records.size()) {
            const std::vector<util::JournalRecord> pending(
                scan.records.begin() + static_cast<std::ptrdiff_t>(consumed_records),
                scan.records.end());
            std::vector<sim::DecodedRecord> decoded;
            auto bases = delta_bases;
            sim::decode_records(pending, decoded, bases);
            res.undecodable = pending.size() - decoded.size();

            std::size_t i = 0;
            for (; i < decoded.size(); ++i) {
                if (opt.max_records_per_poll != 0 &&
                    out.records_applied >= opt.max_records_per_poll) {
                    break;
                }
                const sim::DecodedRecord& d = decoded[i];
                if (opt.apply_hook && !cursor.covers(d)) {
                    opt.apply_hook(consumed_records, d.type, d.epoch);
                }
                const sim::ReplayCursor::Step step = cursor.advance(d);
                if (step == sim::ReplayCursor::Step::kRefused) {
                    res.structural = true;
                    break;
                }
                // A covered record is consumed too: it stays the delta
                // base its successors resolve against.
                delta_bases[d.type] = d.payload;
                ++consumed_records;
                // The raw (possibly delta-encoded) payload is what the
                // frame holds.
                consumed_bytes += util::kJournalFrameBytes + pending[i].payload.size();
                if (step == sim::ReplayCursor::Step::kCovered) continue;
                ++out.records_applied;
                ++stats.records_applied;
                if (d.type == sim::kRecEpochEnd) {
                    ++out.epochs_applied;
                    ++stats.epochs_applied;
                    applied.store(cursor.state.epochs.size(), std::memory_order_relaxed);
                    publish_current();
                }
            }
            for (std::size_t j = i; j < decoded.size(); ++j) {
                if (decoded[j].type == sim::kRecEpochEnd) ++unapplied_epoch_ends;
            }
        }
        known.store(cursor.state.epochs.size() + unapplied_epoch_ends,
                    std::memory_order_relaxed);
        return res;
    }

    FollowerPoll poll() {
        FollowerPoll out;
        ++stats.polls;
        POC_OBS_INC("serve.follower.polls");
        const std::string& path = opt.runtime.journal_path;

        // Identity *before* the scan: if a compaction rename lands in
        // between, the stored identity is stale and the next poll
        // re-detects the generation change instead of missing it.
        const std::uint64_t identity = util::Journal::file_identity(path);
        util::Journal::ScanResult scan;
        try {
            util::Journal::scan_file(path, scan);
        } catch (const util::JournalError&) {
            if (!std::filesystem::exists(path)) {
                out.status = FollowerStatus::kWaitingForJournal;
            } else {
                // Present but headerless: a create in progress, or a
                // damaged header. Same decision rule as the tail —
                // in-progress until the stall budget says otherwise.
                out.torn_tail = true;
                ++stats.torn_tail_polls;
                ++stall_polls;
                out.status = stall_polls >= opt.stall_poll_budget
                                 ? FollowerStatus::kCorrupt
                                 : FollowerStatus::kTornTail;
            }
            status.store(out.status, std::memory_order_relaxed);
            export_counters();
            return out;
        }

        if (scan.meta != meta) {
            // Another scenario's journal: never bootstrap, never apply.
            out.status = FollowerStatus::kForeign;
            status.store(out.status, std::memory_order_relaxed);
            export_counters();
            return out;
        }

        const bool was_bootstrapped = bootstrapped;
        const std::uint64_t start_bytes = consumed_bytes;
        const std::size_t start_records = consumed_records;
        const std::uint64_t start_applied = cursor.state.epochs.size();
        const bool generation_changed =
            bootstrapped && (identity != generation ||
                             scan.valid_end < consumed_bytes ||
                             scan.records.size() < consumed_records);
        generation = identity;

        if (!bootstrapped || generation_changed) {
            ground(scan);
            bootstrapped = true;
            out.rebootstrapped = true;
        }

        ConsumeOutcome co = consume(scan, out);
        if (co.structural && !out.rebootstrapped) {
            // A semantically impossible suffix usually means our
            // grounding is stale relative to a compaction whose rename
            // the identity check could not see (recycled inode). One
            // re-ground per poll; a repeat is structural damage.
            ground(scan);
            out.rebootstrapped = true;
            co = consume(scan, out);
        }

        if (scan.tail_truncated) {
            out.torn_tail = true;
            ++stats.torn_tail_polls;
        }

        // Net progress vs the poll's start — a re-ground that climbs
        // back to the same stuck record is *not* progress, re-applied
        // records notwithstanding.
        out.progressed = !was_bootstrapped || generation_changed ||
                         consumed_bytes != start_bytes ||
                         consumed_records != start_records ||
                         cursor.state.epochs.size() != start_applied;

        bool blocked = co.structural || co.undecodable > 0;
        if (out.progressed) {
            stall_polls = 0;
            stall_reground_tried = false;
        } else if (blocked || out.torn_tail) {
            ++stall_polls;
            if (stall_polls >= opt.stall_poll_budget && !stall_reground_tried) {
                // Before declaring damage, try one snapshot re-ground:
                // a newer snapshot may already cover past the stuck
                // bytes.
                stall_reground_tried = true;
                stall_polls = 0;
                ground(scan);
                out.rebootstrapped = true;
                co = consume(scan, out);
                blocked = co.structural || co.undecodable > 0;
                if (cursor.state.epochs.size() > start_applied ||
                    consumed_bytes > start_bytes) {
                    out.progressed = true;
                    stall_reground_tried = false;
                }
            }
        } else {
            // Quiescent and clean: a journal that simply is not
            // growing is an idle leader, not a stall.
            stall_polls = 0;
        }

        if ((blocked || out.torn_tail) && stall_reground_tried &&
            stall_polls >= opt.stall_poll_budget) {
            out.status = FollowerStatus::kCorrupt;
        } else if (blocked || out.torn_tail) {
            out.status = FollowerStatus::kTornTail;
        } else {
            out.status = FollowerStatus::kTailing;
        }
        status.store(out.status, std::memory_order_relaxed);
        export_counters();
        return out;
    }

    void export_counters() {
        cursor_bytes_pub.store(consumed_bytes, std::memory_order_relaxed);
        cursor_records_pub.store(consumed_records, std::memory_order_relaxed);
        POC_OBS_GAUGE_SET("serve.follower.lag_epochs", lag());
        POC_OBS_GAUGE_SET("serve.follower.applied_epochs",
                          applied.load(std::memory_order_relaxed));
    }

    void tail_until(std::uint64_t target) {
        struct ProgressMade {};
        const double t0 = steady_ms();
        util::RetryPolicy policy = opt.tail_backoff;
        policy.deadline_ms = std::numeric_limits<double>::infinity();
        const util::Retrier::Clock clock = steady_ms;
        const util::Retrier::Sleep sleep = [](double ms) {
            std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
        };
        for (;;) {
            // Fresh Retrier per progress window: the attempt budget
            // bounds *stall* time, any progress resets it.
            util::Retrier retrier(
                policy,
                util::BreakerPolicy{.failure_threshold =
                                        std::numeric_limits<std::size_t>::max()},
                clock, sleep);
            try {
                retrier.call([&](const util::Deadline&) -> int {
                    const FollowerPoll p = poll();
                    if (applied.load(std::memory_order_relaxed) >= target) return 0;
                    if (p.progressed) throw ProgressMade{};
                    throw util::TransientError(
                        std::string("follower tail stalled: ") +
                        follower_status_name(p.status));
                });
                break;
            } catch (const ProgressMade&) {
                continue;
            }
            // util::RetryExhausted propagates: a full stall window is
            // a structural failure, the supervisor's problem.
        }
        POC_OBS_HISTOGRAM("serve.follower.catchup_ms", 0.0, 5000.0, 50,
                          steady_ms() - t0);
    }

    bool reject_stale(std::uint64_t max_lag) const {
        if (lag() <= max_lag) return false;
        stale_rejects.fetch_add(1, std::memory_order_relaxed);
        POC_OBS_INC("serve.follower.stale_rejects");
        return true;
    }
};

Follower::Follower(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                   FollowerOptions opt)
    : impl_(std::make_unique<Impl>(pool, tm, std::move(opt))) {}

Follower::~Follower() = default;

FollowerPoll Follower::poll() { return impl_->poll(); }

void Follower::tail_until(std::uint64_t target_epochs) {
    impl_->tail_until(target_epochs);
}

std::shared_ptr<const EpochView> Follower::current() const {
    return impl_->hub->current();
}

const std::shared_ptr<ViewHub>& Follower::hub() const noexcept { return impl_->hub; }

std::uint64_t Follower::applied_epochs() const noexcept {
    return impl_->applied.load(std::memory_order_relaxed);
}

std::uint64_t Follower::known_epochs() const noexcept {
    return impl_->known.load(std::memory_order_relaxed);
}

std::uint64_t Follower::lag_epochs() const noexcept { return impl_->lag(); }

FollowerStatus Follower::status() const noexcept {
    return impl_->status.load(std::memory_order_relaxed);
}

const FollowerStats& Follower::stats() const noexcept {
    impl_->stats.stale_rejects =
        impl_->stale_rejects.load(std::memory_order_relaxed);
    return impl_->stats;
}

std::uint64_t Follower::cursor_bytes() const noexcept {
    return impl_->cursor_bytes_pub.load(std::memory_order_relaxed);
}

std::uint64_t Follower::cursor_records() const noexcept {
    return impl_->cursor_records_pub.load(std::memory_order_relaxed);
}

QuoteReply Follower::quote(std::string_view bp_name,
                           std::uint64_t max_lag_epochs) const {
    POC_OBS_INC("serve.follower.queries");
    if (impl_->reject_stale(max_lag_epochs)) return refusal<QuoteReply>(ServeError::kStaleView);
    const auto view = impl_->hub->current();
    return view ? quote_reply(*view, bp_name) : QuoteReply{};
}

PathReply Follower::path(net::NodeId src, net::NodeId dst,
                         std::uint64_t max_lag_epochs) const {
    POC_OBS_INC("serve.follower.queries");
    if (impl_->reject_stale(max_lag_epochs)) return refusal<PathReply>(ServeError::kStaleView);
    const auto view = impl_->hub->current();
    return view ? path_reply(*view, src, dst) : PathReply{};
}

SlaReply Follower::sla(std::uint64_t max_lag_epochs) const {
    POC_OBS_INC("serve.follower.queries");
    if (impl_->reject_stale(max_lag_epochs)) return refusal<SlaReply>(ServeError::kStaleView);
    const auto view = impl_->hub->current();
    return view ? sla_reply(*view) : SlaReply{};
}

HistoryReply Follower::at_epoch(std::uint64_t completed_epochs) const {
    POC_OBS_INC("serve.follower.queries");
    // The degradation path for a stale replica: no staleness check —
    // the reply is proven point-in-time state, not the live view.
    return history_reply(impl_->pool, impl_->tm, impl_->opt.runtime, completed_epochs);
}

FollowerRunResult run_follower_with_recovery(const market::OfferPool& pool,
                                             const net::TrafficMatrix& tm,
                                             const FollowerOptions& opt,
                                             std::uint64_t target_epochs,
                                             const std::vector<sim::Fault>& trace) {
    FollowerRunResult res;
    res.hub = opt.hub ? opt.hub : std::make_shared<ViewHub>();

    struct FirePoint {
        std::uint64_t epoch = 0;
        bool fired = false;
    };
    auto crashes = std::make_shared<std::vector<FirePoint>>();
    std::vector<FirePoint> corrupts;
    for (const sim::Fault& f : trace) {
        if (f.kind == sim::FaultKind::kFollowerCrash) {
            crashes->push_back({f.start_epoch, false});
        } else if (f.kind == sim::FaultKind::kFollowerTailCorrupt) {
            corrupts.push_back({f.start_epoch, false});
        }
        // Leader-side kinds are the leader supervisor's problem.
    }

    FollowerOptions sub = opt;
    sub.hub = res.hub;
    sub.apply_hook = [user = opt.apply_hook, crashes](std::size_t index,
                                                      std::uint16_t type,
                                                      std::uint64_t epoch) {
        if (user) user(index, type, epoch);
        for (FirePoint& c : *crashes) {
            if (!c.fired && epoch == c.epoch) {
                c.fired = true;
                throw FollowerCrash(index, epoch);
            }
        }
    };

    const std::size_t restart_budget =
        std::max<std::size_t>(1, opt.runtime.restart.max_attempts);
    const std::size_t poll_budget =
        restart_budget * std::max<std::size_t>(1, opt.stall_poll_budget);

    std::unique_ptr<Follower> follower;
    std::size_t idle_restarts = 0;  // consecutive restarts without progress
    std::size_t idle_polls = 0;     // consecutive no-progress polls
    std::uint64_t best_applied = 0;

    for (;;) {
        if (!follower) {
            follower = std::make_unique<Follower>(pool, tm, sub);
        }
        FollowerPoll p;
        try {
            p = follower->poll();
        } catch (const FollowerCrash& crash) {
            ++res.restarts;
            POC_OBS_INC("serve.follower.crashes");
            res.rebootstraps += follower->stats().rebootstraps;
            const std::uint64_t applied = follower->applied_epochs();
            if (applied > best_applied) {
                best_applied = applied;
                idle_restarts = 0;
            } else if (++idle_restarts >= restart_budget) {
                throw sim::RecoveryExhausted(res.restarts, crash.what());
            }
            follower.reset();
            continue;
        }

        const std::uint64_t applied = follower->applied_epochs();
        if (applied > best_applied) best_applied = applied;

        // Fire pending tail-corruption faults: one bit flip past the
        // replica's cursor once it has applied the fault's epoch. Only
        // this replica (and a future recovery scan) reads those bytes
        // — the leader appends blind — so the damage is exactly "media
        // corruption in the suffix the follower has yet to consume".
        for (FirePoint& c : corrupts) {
            if (c.fired || applied < c.epoch) continue;
            const std::string& path = sub.runtime.journal_path;
            const std::uint64_t size = util::FaultyFile::size(path);
            const std::uint64_t cur = follower->cursor_bytes();
            if (size > cur + 4) {
                util::FaultyFile::flip_bit(path, cur + (size - cur) / 2, 3);
                c.fired = true;
                POC_OBS_INC("serve.follower.injected_tail_corruptions");
            }
            // Journal not yet extended past the cursor: hold the fault
            // until there are suffix bytes to damage.
        }

        if (applied >= target_epochs) break;

        if (p.progressed) {
            idle_polls = 0;
        } else if (++idle_polls >= poll_budget) {
            throw sim::RecoveryExhausted(
                res.restarts, std::string("follower stalled: ") +
                                  follower_status_name(p.status));
        } else {
            // Waiting on a live writer (or a compaction that clears
            // damage): tiny real pause so the supervisor does not spin
            // a core against an idle journal.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    res.applied_epochs = follower->applied_epochs();
    res.rebootstraps += follower->stats().rebootstraps;
    res.final_view = res.hub->current();
    return res;
}

}  // namespace poc::serve
