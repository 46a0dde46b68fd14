#include "sim/replay.hpp"

#include <cstring>
#include <utility>

#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/state_history.hpp"

namespace poc::sim {

void write_rng_state(util::BinaryWriter& w, const util::RngState& st) {
    for (const std::uint64_t s : st.s) w.u64(s);
    w.boolean(st.have_spare_normal);
    w.f64(st.spare_normal);
}

util::RngState read_rng_state(util::BinaryReader& r) {
    util::RngState st;
    for (std::uint64_t& s : st.s) s = r.u64();
    st.have_spare_normal = r.boolean();
    st.spare_normal = r.f64();
    return st;
}

void write_epoch_record(util::BinaryWriter& w, const EpochRecord& rec) {
    w.u64(rec.epoch);
    w.boolean(rec.provisioned);
    w.boolean(rec.degraded_mode);
    w.boolean(rec.breaker_open);
    w.f64(rec.demand_factor);
    w.f64(rec.demand_gbps);
    w.f64(rec.delivered_fraction);
    w.f64(rec.max_utilization);
    w.f64(rec.stretch);
    w.i64(rec.outlay.micros());
    w.u64(rec.retry_attempts);
}

EpochRecord read_epoch_record(util::BinaryReader& r) {
    EpochRecord rec;
    rec.epoch = r.u64();
    rec.provisioned = r.boolean();
    rec.degraded_mode = r.boolean();
    rec.breaker_open = r.boolean();
    rec.demand_factor = r.f64();
    rec.demand_gbps = r.f64();
    rec.delivered_fraction = r.f64();
    rec.max_utilization = r.f64();
    rec.stretch = r.f64();
    rec.outlay = util::Money::from_micros(r.i64());
    rec.retry_attempts = r.u64();
    return rec;
}

std::size_t decode_records(const std::vector<util::JournalRecord>& records,
                           std::vector<DecodedRecord>& out,
                           std::map<std::uint16_t, std::string>& bases) {
    for (const util::JournalRecord& rec : records) {
        const auto base_type = static_cast<std::uint16_t>(rec.type & ~kRecDeltaFlag);
        if (base_type < kRecEpochBegin || base_type > kRecEpochEnd) return out.size();
        std::string payload;
        if ((rec.type & kRecDeltaFlag) != 0) {
            const auto it = bases.find(base_type);
            if (it == bases.end()) return out.size();
            try {
                payload = util::xor_delta_decode(it->second, rec.payload);
            } catch (const util::StateHistoryError&) {
                return out.size();
            }
        } else {
            payload = rec.payload;
        }
        if (payload.size() < sizeof(std::uint64_t)) return out.size();
        std::uint64_t epoch = 0;
        std::memcpy(&epoch, payload.data(), sizeof epoch);
        bases[base_type] = payload;
        out.push_back({base_type, std::move(payload), epoch});
    }
    return out.size();
}

namespace {

/// Bit-pattern of a double, for exact fingerprint comparison.
std::uint64_t f64_bits(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::char_traits<char>::copy(reinterpret_cast<char*>(&bits),
                                 reinterpret_cast<const char*>(&v), sizeof bits);
    return bits;
}

}  // namespace

std::string runtime_meta_fingerprint(const market::OfferPool& pool,
                                     const net::TrafficMatrix& tm,
                                     const RuntimeOptions& opt) {
    util::BinaryWriter w;
    w.str("poc-runtime-v2");
    w.u64(opt.epochs);
    w.u64(opt.seed);
    w.u64(f64_bits(opt.demand_jitter));
    w.u8(static_cast<std::uint8_t>(opt.request.constraint));
    w.boolean(opt.request.auction.exact);
    // Semantic data-plane selection (RuntimeOptions::flow_routing):
    // epoch records differ between modes, so a resume must match. The
    // shard/thread counts are deliberately NOT here — they are engine
    // knobs, bit-identical at every value (DESIGN.md §9).
    w.u8(static_cast<std::uint8_t>(opt.flow_routing));
    w.u64(pool.offered_links().size());
    w.u64(tm.size());
    w.u64(f64_bits(net::total_demand(tm)));
    return w.bytes();
}

ReplayCursor ground_replay(const util::SnapshotStore& store, std::string_view meta,
                           std::uint64_t seed, std::uint64_t target_epochs) {
    ReplayCursor cursor;
    cursor.state.rng = util::Rng(seed).state();
    for (auto snap = store.load_at(target_epochs, meta); snap;
         snap = store.load_at(snap->completed_epochs - 1, meta)) {
        try {
            RuntimeState st = decode_runtime_state(snap->payload);
            if (st.epochs.size() == snap->completed_epochs) {
                cursor.state = std::move(st);
                cursor.grounded = snap->completed_epochs;
                return cursor;
            }
        } catch (const util::ContractViolation&) {
        } catch (const util::JournalError&) {
        }
        // CRC-valid but undecodable — what an older reader sees after a
        // state-format version bump: fall back to an older generation.
        POC_OBS_INC("sim.replay.snapshots_undecodable");
        if (snap->completed_epochs == 0) break;
    }
    return cursor;
}

ReplayCursor::Step ReplayCursor::advance(const DecodedRecord& rec) {
    if (covers(rec)) return Step::kCovered;
    try {
        apply(rec);
    } catch (const util::ContractViolation&) {
        return Step::kRefused;
    } catch (const util::JournalError&) {
        return Step::kRefused;
    }
    applied_any = true;
    return Step::kApplied;
}

void ReplayCursor::apply(const DecodedRecord& rec) {
    util::BinaryReader r(rec.payload);
    switch (rec.type) {
        case kRecEpochBegin: {
            const std::uint64_t epoch = r.u64();
            const double demand_factor = r.f64();
            const util::RngState st = read_rng_state(r);
            POC_EXPECTS(r.exhausted());
            POC_EXPECTS(!has_pending);
            POC_EXPECTS(epoch == state.epochs.size());
            pending = PendingEpoch{};
            pending.epoch = epoch;
            pending.demand_factor = demand_factor;
            state.rng = st;
            pending.have_begin = true;
            has_pending = true;
            break;
        }
        case kRecAuction: {
            const std::uint64_t epoch = r.u64();
            std::optional<market::AuctionResult> auction;
            if (r.boolean()) auction = market::read_auction_result(r);
            const bool degraded = r.boolean();
            const bool breaker_open = r.boolean();
            const std::uint64_t attempts = r.u64();
            POC_EXPECTS(r.exhausted());
            POC_EXPECTS(has_pending && epoch == pending.epoch);
            POC_EXPECTS(!pending.have_auction);
            pending.auction = std::move(auction);
            pending.degraded = degraded;
            pending.breaker_open = breaker_open;
            pending.attempts = attempts;
            pending.have_auction = true;
            break;
        }
        case kRecProvision: {
            const std::uint64_t epoch = r.u64();
            std::vector<net::LinkId> selected = market::read_links(r);
            POC_EXPECTS(r.exhausted());
            POC_EXPECTS(has_pending && epoch == pending.epoch);
            POC_EXPECTS(pending.have_auction && !pending.have_provision);
            pending.selected = std::move(selected);
            pending.have_provision = true;
            break;
        }
        case kRecFlows: {
            const std::uint64_t epoch = r.u64();
            const double offered = r.f64();
            const double routed = r.f64();
            const double max_util = r.f64();
            const double stretch = r.f64();
            POC_EXPECTS(r.exhausted());
            POC_EXPECTS(has_pending && epoch == pending.epoch);
            POC_EXPECTS(pending.have_provision && !pending.have_flows);
            pending.offered_gbps = offered;
            pending.routed_gbps = routed;
            pending.max_utilization = max_util;
            pending.stretch = stretch;
            pending.have_flows = true;
            break;
        }
        case kRecSettlement: {
            const std::uint64_t epoch = r.u64();
            const std::uint64_t n = r.count(core::kMinTransferBytes);
            std::vector<core::Transfer> transfers;
            transfers.reserve(n);
            for (std::uint64_t i = 0; i < n; ++i) {
                transfers.push_back(core::read_transfer(r));
            }
            POC_EXPECTS(r.exhausted());
            POC_EXPECTS(has_pending && epoch == pending.epoch);
            POC_EXPECTS(pending.have_flows && !pending.have_settlement);
            for (const core::Transfer& t : transfers) {
                state.ledger.record(t.from, t.to, t.kind, t.amount, t.memo);
            }
            pending.have_settlement = true;
            break;
        }
        case kRecEpochEnd: {
            EpochRecord done = read_epoch_record(r);
            const util::RngState st = read_rng_state(r);
            POC_EXPECTS(r.exhausted());
            POC_EXPECTS(has_pending && pending.have_settlement);
            POC_EXPECTS(done.epoch == pending.epoch);
            state.rng = st;
            if (done.breaker_open) ++state.breaker_open_epochs;
            state.epochs.push_back(done);
            state.auctions.push_back(std::move(pending.auction));
            has_pending = false;
            ++replayed_epochs;
            break;
        }
        default:
            throw util::JournalError("unknown journal record type " +
                                     std::to_string(rec.type));
    }
}

}  // namespace poc::sim
