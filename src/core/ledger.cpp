#include "core/ledger.hpp"

#include <map>
#include <sstream>

#include "obs/metrics.hpp"
#include "util/contracts.hpp"

namespace poc::core {

std::string party_label(Party party) {
    switch (party.kind) {
        case PartyKind::kPoc:
            return "POC";
        case PartyKind::kBandwidthProvider:
            return "BP" + std::to_string(party.index + 1);
        case PartyKind::kLmp:
            return "LMP" + std::to_string(party.index + 1);
        case PartyKind::kCsp:
            return "CSP" + std::to_string(party.index + 1);
        case PartyKind::kExternalIsp:
            return "ISP" + std::to_string(party.index + 1);
        case PartyKind::kCustomers:
            return "Customers(LMP" + std::to_string(party.index + 1) + ")";
    }
    return "?";
}

std::string transfer_label(TransferKind kind) {
    switch (kind) {
        case TransferKind::kLinkLease:
            return "link lease (POC->BP)";
        case TransferKind::kIspContract:
            return "ISP contract (POC->ISP)";
        case TransferKind::kPocAccess:
            return "POC access (LMP/CSP->POC)";
        case TransferKind::kLmpHosting:
            return "LMP hosting (CSP->LMP)";
        case TransferKind::kCustomerAccess:
            return "customer access (users->LMP)";
        case TransferKind::kCspSubscription:
            return "CSP subscription (users->CSP)";
        case TransferKind::kServiceFees:
            return "service fees (QoS/CDN->POC)";
    }
    return "?";
}

void Ledger::record(Party from, Party to, TransferKind kind, util::Money amount,
                    std::string memo) {
    POC_EXPECTS(!amount.is_negative());
    POC_EXPECTS(!(from == to));
    if (amount.is_zero()) return;
    // Settlement telemetry: every recorded transfer and the exact
    // micro-dollar volume (Money is integer micros, so the counter sum
    // is lossless).
    POC_OBS_INC("core.ledger.transfers");
    POC_OBS_COUNT("core.ledger.settled_microusd", amount.micros());
    transfers_.push_back(Transfer{from, to, kind, amount, std::move(memo)});
    post(from, -amount);
    post(to, amount);
}

void Ledger::post(Party party, util::Money amount) {
    std::size_t i = 0;
    while (i < balances_.size() && !(balances_[i].first == party)) ++i;
    if (i == balances_.size()) {
        balances_.emplace_back(party, util::Money{});
        overflowed_.push_back(0);
    }
    if (overflowed_[i] != 0) return;
    // A settlement path that sums near-int64 amounts must fail loudly,
    // never wrap (util::money): the overflow surfaces when the balance
    // is read, as a scan of the transfers would raise it.
    const auto sum = util::Money::checked_add(balances_[i].second, amount);
    if (sum) {
        balances_[i].second = *sum;
    } else {
        overflowed_[i] = 1;
        any_overflowed_ = true;
    }
}

util::Money Ledger::balance(Party party) const {
    for (std::size_t i = 0; i < balances_.size(); ++i) {
        if (!(balances_[i].first == party)) continue;
        POC_EXPECTS(overflowed_[i] == 0);  // the balance overflowed int64 micros
        return balances_[i].second;
    }
    return util::Money{};
}

const std::vector<std::pair<Party, util::Money>>& Ledger::balances() const {
    POC_EXPECTS(!any_overflowed_);  // some balance overflowed int64 micros
    return balances_;
}

util::Money Ledger::total(TransferKind kind) const {
    util::Money sum{};
    for (const Transfer& t : transfers_) {
        if (t.kind == kind) sum = util::Money::checked_sum(sum, t.amount);
    }
    return sum;
}

bool Ledger::conserves() const {
    // Group by party and sum; zero-sum by construction, but we verify
    // against the actual records.
    std::map<std::pair<int, std::uint32_t>, util::Money> balances;
    for (const Transfer& t : transfers_) {
        balances[{static_cast<int>(t.from.kind), t.from.index}] -= t.amount;
        balances[{static_cast<int>(t.to.kind), t.to.index}] += t.amount;
    }
    util::Money total{};
    for (const auto& [party, bal] : balances) total += bal;
    return total.is_zero();
}

std::string Ledger::statement() const {
    std::map<std::pair<int, std::uint32_t>, util::Money> balances;
    for (const Transfer& t : transfers_) {
        balances[{static_cast<int>(t.from.kind), t.from.index}] -= t.amount;
        balances[{static_cast<int>(t.to.kind), t.to.index}] += t.amount;
    }
    std::ostringstream os;
    os << "== balances ==\n";
    for (const auto& [key, bal] : balances) {
        const Party p{static_cast<PartyKind>(key.first), key.second};
        os << "  " << party_label(p) << ": " << bal << "\n";
    }
    os << "== category totals ==\n";
    for (const TransferKind k :
         {TransferKind::kLinkLease, TransferKind::kIspContract, TransferKind::kPocAccess,
          TransferKind::kLmpHosting, TransferKind::kCustomerAccess,
          TransferKind::kCspSubscription, TransferKind::kServiceFees}) {
        os << "  " << transfer_label(k) << ": " << total(k) << "\n";
    }
    return os.str();
}

void write_transfer(util::BinaryWriter& w, const Transfer& t) {
    w.u8(static_cast<std::uint8_t>(t.from.kind));
    w.u32(t.from.index);
    w.u8(static_cast<std::uint8_t>(t.to.kind));
    w.u32(t.to.index);
    w.u8(static_cast<std::uint8_t>(t.kind));
    w.i64(t.amount.micros());
    w.str(t.memo);
}

Transfer read_transfer(util::BinaryReader& r) {
    Transfer t;
    t.from.kind = static_cast<PartyKind>(r.u8());
    t.from.index = r.u32();
    t.to.kind = static_cast<PartyKind>(r.u8());
    t.to.index = r.u32();
    t.kind = static_cast<TransferKind>(r.u8());
    t.amount = util::Money::from_micros(r.i64());
    t.memo = r.str();
    return t;
}

void Ledger::serialize(util::BinaryWriter& w) const {
    w.u64(transfers_.size());
    for (const Transfer& t : transfers_) write_transfer(w, t);
}

Ledger Ledger::deserialize(util::BinaryReader& r) {
    Ledger ledger;
    const std::uint64_t n = r.u64();
    for (std::uint64_t i = 0; i < n; ++i) {
        Transfer t = read_transfer(r);
        ledger.record(t.from, t.to, t.kind, t.amount, std::move(t.memo));
    }
    return ledger;
}

}  // namespace poc::core
