// Double-entry ledger for the payment structure of section 3.2:
//
//   * the POC pays the BPs (auction payments) and external ISPs;
//   * each LMP and directly-attached CSP pays the POC for access;
//   * each customer pays their LMP for access and their CSPs for
//     services; CSPs hosted by an LMP pay that LMP.
//
// Every transfer is recorded once with a debit and credit party, so
// conservation (sum of balances == 0) and the POC's break-even
// requirement are exact integer checks.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "util/journal.hpp"
#include "util/money.hpp"

namespace poc::core {

/// Ledger party kinds (parties are (kind, index) pairs; index is the
/// entity's id within its kind, 0 for singletons like the POC).
enum class PartyKind : std::uint8_t {
    kPoc,
    kBandwidthProvider,
    kLmp,
    kCsp,
    kExternalIsp,
    /// The aggregate customer population of one LMP.
    kCustomers,
};

struct Party {
    PartyKind kind{};
    std::uint32_t index = 0;

    friend bool operator==(const Party&, const Party&) = default;
};

std::string party_label(Party party);

/// Transfer categories, mirroring section 3.2's bullet list plus the
/// optional section 3.1 services.
enum class TransferKind : std::uint8_t {
    kLinkLease,          // POC -> BP (auction payment)
    kIspContract,        // POC -> external ISP
    kPocAccess,          // LMP or direct CSP -> POC
    kLmpHosting,         // LMP-hosted CSP -> LMP
    kCustomerAccess,     // customers -> LMP
    kCspSubscription,    // customers -> CSP
    kServiceFees,        // QoS / CDN service fees -> POC
};

std::string transfer_label(TransferKind kind);

struct Transfer {
    Party from;
    Party to;
    TransferKind kind{};
    util::Money amount;
    std::string memo;

    friend bool operator==(const Transfer&, const Transfer&) = default;
};

/// Binary (de)serialization of one transfer, for the durable epoch
/// runtime's write-ahead journal. Byte-exact round trip.
void write_transfer(util::BinaryWriter& w, const Transfer& t);
Transfer read_transfer(util::BinaryReader& r);

/// Smallest encoded transfer (empty memo): three kind bytes, two u32
/// party indices, the i64 amount and the memo's u64 length prefix.
inline constexpr std::size_t kMinTransferBytes = 3 + 2 * 4 + 8 + 8;

/// Append-only ledger with exact integer accounting.
class Ledger {
public:
    /// Record a transfer. Amounts must be non-negative; zero transfers
    /// are dropped silently (convenience for generated flows).
    void record(Party from, Party to, TransferKind kind, util::Money amount,
                std::string memo = {});

    const std::vector<Transfer>& transfers() const noexcept { return transfers_; }

    /// Net balance of a party: credits minus debits. Read from a tally
    /// record() keeps, so it costs O(parties), not O(transfers). Throws
    /// ContractViolation when the party's balance overflowed int64
    /// micros at any point of the transfer sequence.
    util::Money balance(Party party) const;

    /// Net balance of every party with ledger activity, in first-seen
    /// order (each transfer's debit party, then its credit party).
    /// Throws ContractViolation when any of them overflowed.
    const std::vector<std::pair<Party, util::Money>>& balances() const;

    /// Sum of all amounts in a category.
    util::Money total(TransferKind kind) const;

    /// Conservation: the sum of all balances is exactly zero (holds by
    /// construction; exposed for tests and audits).
    bool conserves() const;

    /// The POC's net position; a nonprofit targets >= 0 with ~0 margin.
    util::Money poc_net() const { return balance(Party{PartyKind::kPoc, 0}); }

    /// Human-readable statement (per party, then per category).
    std::string statement() const;

    /// Serialize every transfer in append order (journal snapshot).
    void serialize(util::BinaryWriter& w) const;
    /// Rebuild a ledger from serialize()'s bytes: replaying the
    /// transfers through record() reproduces the exact same state.
    static Ledger deserialize(util::BinaryReader& r);

private:
    /// Add `amount` to `party`'s running balance, through the same
    /// ordered checked addition a scan of the transfers would make. An
    /// overflow sticks: no later transfer makes the balance readable.
    void post(Party party, util::Money amount);

    std::vector<Transfer> transfers_;
    std::vector<std::pair<Party, util::Money>> balances_;
    /// Per entry of balances_: its running sum overflowed.
    std::vector<char> overflowed_;
    bool any_overflowed_ = false;
};

}  // namespace poc::core
