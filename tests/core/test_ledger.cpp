#include "core/ledger.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace poc::core {
namespace {

using util::Money;
using util::operator""_usd;

constexpr Party kPoc{PartyKind::kPoc, 0};
constexpr Party kBp0{PartyKind::kBandwidthProvider, 0};
constexpr Party kLmp0{PartyKind::kLmp, 0};
constexpr Party kLmp1{PartyKind::kLmp, 1};

TEST(Ledger, RecordsAndBalances) {
    Ledger ledger;
    ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, 100_usd);
    ledger.record(kPoc, kBp0, TransferKind::kLinkLease, 60_usd);
    EXPECT_EQ(ledger.balance(kPoc), 40_usd);
    EXPECT_EQ(ledger.balance(kBp0), 60_usd);
    EXPECT_EQ(ledger.balance(kLmp0), -100_usd);
}

TEST(Ledger, ConservationAlwaysHolds) {
    Ledger ledger;
    ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, 123_usd);
    ledger.record(kLmp1, kPoc, TransferKind::kPocAccess, 77_usd);
    ledger.record(kPoc, kBp0, TransferKind::kLinkLease, 199_usd);
    EXPECT_TRUE(ledger.conserves());
}

TEST(Ledger, TotalsByCategory) {
    Ledger ledger;
    ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, 100_usd);
    ledger.record(kLmp1, kPoc, TransferKind::kPocAccess, 50_usd);
    ledger.record(kPoc, kBp0, TransferKind::kLinkLease, 75_usd);
    EXPECT_EQ(ledger.total(TransferKind::kPocAccess), 150_usd);
    EXPECT_EQ(ledger.total(TransferKind::kLinkLease), 75_usd);
    EXPECT_EQ(ledger.total(TransferKind::kCspSubscription), Money{});
}

TEST(Ledger, ZeroTransfersDropped) {
    Ledger ledger;
    ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, Money{});
    EXPECT_TRUE(ledger.transfers().empty());
}

TEST(Ledger, RejectsNegativeAndSelfTransfers) {
    Ledger ledger;
    EXPECT_THROW(ledger.record(kLmp0, kPoc, TransferKind::kPocAccess,
                               Money::from_dollars(-1.0)),
                 util::ContractViolation);
    EXPECT_THROW(ledger.record(kPoc, kPoc, TransferKind::kPocAccess, 1_usd),
                 util::ContractViolation);
}

TEST(Ledger, PocNetBreakEven) {
    Ledger ledger;
    ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, 100_usd);
    ledger.record(kPoc, kBp0, TransferKind::kLinkLease, 100_usd);
    EXPECT_EQ(ledger.poc_net(), Money{});
}

TEST(Ledger, StatementListsPartiesAndCategories) {
    Ledger ledger;
    ledger.record(Party{PartyKind::kCustomers, 0}, kLmp0, TransferKind::kCustomerAccess,
                  42_usd, "subs");
    const std::string s = ledger.statement();
    EXPECT_NE(s.find("Customers(LMP1)"), std::string::npos);
    EXPECT_NE(s.find("LMP1"), std::string::npos);
    EXPECT_NE(s.find("customer access"), std::string::npos);
    EXPECT_NE(s.find("$42.00"), std::string::npos);
}

TEST(Ledger, PartyLabelsDistinct) {
    EXPECT_EQ(party_label(kPoc), "POC");
    EXPECT_EQ(party_label(Party{PartyKind::kCsp, 2}), "CSP3");
    EXPECT_EQ(party_label(Party{PartyKind::kExternalIsp, 0}), "ISP1");
}

TEST(Ledger, MemoPreserved) {
    Ledger ledger;
    ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, 10_usd, "march invoice");
    ASSERT_EQ(ledger.transfers().size(), 1u);
    EXPECT_EQ(ledger.transfers()[0].memo, "march invoice");
}

TEST(Ledger, BalanceAccumulationOverflowFailsLoudly) {
    // Balances accumulate through Money::checked_sum: two near-max
    // transfers to one party must raise ContractViolation instead of
    // wrapping to a silently-wrong (negative) balance.
    Ledger ledger;
    const Money huge =
        Money::from_micros(std::numeric_limits<std::int64_t>::max() / 2 + 1);
    ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, huge, "near-max 1");
    ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, huge, "near-max 2");
    EXPECT_THROW(ledger.balance(kPoc), util::ContractViolation);
    EXPECT_THROW(ledger.total(TransferKind::kPocAccess), util::ContractViolation);
    // A single huge transfer is still representable and exact.
    Ledger single;
    single.record(kLmp0, kPoc, TransferKind::kPocAccess, huge);
    EXPECT_EQ(single.balance(kPoc), huge);
}

TEST(Ledger, ExactIntegerAccounting) {
    // One third of a dollar three times sums to 999999 micros with
    // floor rounding; Money's llround keeps the books exact instead.
    Ledger ledger;
    const Money third = Money::from_dollars(1.0 / 3.0);
    for (int i = 0; i < 3; ++i) {
        ledger.record(kLmp0, kPoc, TransferKind::kPocAccess, third);
    }
    EXPECT_EQ(ledger.balance(kPoc).micros(), 3 * third.micros());
    EXPECT_TRUE(ledger.conserves());
}

/// A party's balance the way a scan of the transfers sums it: checked
/// additions in transfer order; nullopt once the sum overflows.
std::optional<Money> scanned_balance(const Ledger& ledger, Party party) {
    Money net{};
    for (const Transfer& t : ledger.transfers()) {
        std::optional<Money> next = net;
        if (t.to == party) next = Money::checked_add(net, t.amount);
        if (t.from == party) next = Money::checked_add(net, -t.amount);
        if (!next) return std::nullopt;
        net = *next;
    }
    return net;
}

void expect_tally_matches_scan(const Ledger& ledger, const std::vector<Party>& parties,
                               const std::string& tag) {
    for (const Party p : parties) {
        const std::optional<Money> want = scanned_balance(ledger, p);
        if (want) {
            EXPECT_EQ(ledger.balance(p), *want) << tag << " " << party_label(p);
        } else {
            EXPECT_THROW(ledger.balance(p), util::ContractViolation) << tag << " " << party_label(p);
        }
    }
    // balances(): every party with activity in first-seen order (debit
    // party, then credit party), or a throw when any of them overflowed.
    std::vector<std::pair<Party, Money>> want;
    bool overflowed = false;
    for (const Transfer& t : ledger.transfers()) {
        for (const Party p : {t.from, t.to}) {
            bool seen = false;
            for (const auto& entry : want) seen = seen || entry.first == p;
            if (seen) continue;
            const std::optional<Money> balance = scanned_balance(ledger, p);
            overflowed = overflowed || !balance;
            want.emplace_back(p, balance.value_or(Money{}));
        }
    }
    if (overflowed) {
        EXPECT_THROW(ledger.balances(), util::ContractViolation) << tag;
    } else {
        EXPECT_EQ(ledger.balances(), want) << tag;
    }
}

TEST(Ledger, RunningBalancesMatchAScanOfTheTransfers) {
    // balance(), balances() and poc_net() read the tally record() keeps.
    // Over random transfer sequences they agree with a scan of
    // transfers(): the same values, the same first-seen order, and a
    // throw exactly where the scan overflows (every fourth round moves
    // amounts near the int64 limit). A serialize/deserialize round trip
    // rebuilds the same tally.
    const std::vector<Party> parties = {
        kPoc, kBp0, kLmp0, kLmp1, {PartyKind::kCsp, 2}, {PartyKind::kExternalIsp, 0},
        {PartyKind::kCustomers, 1}, {PartyKind::kBandwidthProvider, 7}};
    const std::size_t active = parties.size() - 1;  // the last one never transacts
    util::Rng rng(77);
    int overflowing_rounds = 0;
    for (int round = 0; round < 40; ++round) {
        const bool huge = round % 4 == 3;
        const std::uint64_t max_micros =
            huge ? std::uint64_t{std::numeric_limits<std::int64_t>::max() / 3}
                 : std::uint64_t{1'000'000'000};
        Ledger ledger;
        const std::uint64_t n = 1 + rng.uniform_int(std::uint64_t{40});
        for (std::uint64_t i = 0; i < n; ++i) {
            const std::size_t from = rng.uniform_int(std::uint64_t{active});
            const std::size_t to = (from + 1 + rng.uniform_int(std::uint64_t{active - 1})) % active;
            // Now and then a zero amount, which record() drops.
            const Money amount = rng.bernoulli(0.1)
                                     ? Money{}
                                     : Money::from_micros(static_cast<std::int64_t>(
                                           rng.uniform_int(max_micros)));
            ledger.record(parties[from], parties[to], TransferKind::kPocAccess, amount);
        }
        const std::string tag = "round " + std::to_string(round);
        expect_tally_matches_scan(ledger, parties, tag);
        const std::optional<Money> poc = scanned_balance(ledger, kPoc);
        if (poc) {
            EXPECT_EQ(ledger.poc_net(), *poc) << tag;
        } else {
            ++overflowing_rounds;
            EXPECT_THROW(ledger.poc_net(), util::ContractViolation) << tag;
        }

        util::BinaryWriter w;
        ledger.serialize(w);
        const std::string bytes = w.bytes();
        util::BinaryReader r(bytes);
        const Ledger copy = Ledger::deserialize(r);
        expect_tally_matches_scan(copy, parties, tag + " round trip");
        if (poc) {
            EXPECT_EQ(copy.poc_net(), *poc) << tag;
        }
    }
    EXPECT_GT(overflowing_rounds, 0);
}

}  // namespace
}  // namespace poc::core
