// The strategy-proof bandwidth auction (paper section 3.3): a VCG
// mechanism with the Clarke pivot rule.
//
//   SL     = argmin { C(L) : L in A(OL) }
//   SL_-a  = argmin { C(L) : L in A(OL - L_a) }
//   P_a    = C_a(SL_a) + ( C(SL_-a) - C(SL) )
//
// Payments never fall below the BP's declared cost C_a(SL_a) because
// removing links cannot lower the optimum; the payment-over-bid margin
// PoB = (P_a - C_a) / C_a is the quantity plotted in Figure 2.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "market/windet.hpp"
#include "util/journal.hpp"
#include "util/thread_pool.hpp"

namespace poc::market {

class DeltaReclearState;

/// Per-BP auction outcome.
struct BpOutcome {
    BpId bp;
    std::string name;
    /// SL_alpha: this BP's links in the winning set.
    std::vector<net::LinkId> selected_links;
    /// C_alpha(SL_alpha): the BP's declared cost of its winning links.
    util::Money bid_cost;
    /// C(SL_-alpha): optimum cost with this BP absent.
    util::Money cost_without;
    /// P_alpha: VCG payment to this BP.
    util::Money payment;
    /// Payment-over-bid margin (P-C)/C; zero when the BP won nothing.
    double pob = 0.0;
    /// False when A(OL - L_alpha) was empty, so the Clarke term is
    /// undefined (the paper assumes this never happens; we surface it).
    bool pivot_defined = true;
};

struct AuctionResult {
    /// SL and C(SL).
    Selection selection;
    /// C_v(SL intersect VL): contract cost of selected virtual links.
    util::Money virtual_cost;
    /// Per-BP outcomes, in bid order.
    std::vector<BpOutcome> outcomes;
    /// Sum of all P_alpha plus the virtual-link contract cost: the
    /// POC's total monthly outlay, which its LMP charges must recoup.
    util::Money total_outlay;
    /// Real acceptability-oracle evaluations over the oracle's lifetime
    /// (diagnostics). Exact under concurrency (atomic counting) and
    /// with the memo engaged: memoized answers are *not* re-counted here.
    std::size_t oracle_queries = 0;
    /// Oracle verdicts answered from the delta memo instead of
    /// re-evaluated (zero when AuctionOptions::delta is unset or the
    /// oracle cannot certify purity).
    std::size_t oracle_cache_hits = 0;
    /// Whole pivot re-solves reused from the delta memo (zero under
    /// the same conditions).
    std::size_t solve_cache_hits = 0;
    /// Position of each BP's outcome in `outcomes`; built by
    /// run_auction so outcome() is an O(1) lookup.
    std::unordered_map<BpId, std::size_t> outcome_index;

    /// Outcome lookup by BP id.
    const BpOutcome& outcome(BpId bp) const;
};

struct AuctionOptions {
    /// Use the exact branch-and-bound winner determination (small
    /// instances only); the heuristic otherwise.
    bool exact = false;
    WinnerDeterminationOptions windet;
    /// Threads for the per-BP Clarke-pivot re-solves, which are
    /// independent by construction, counting the calling thread; 0 or
    /// 1 = serial. The pivots fan out over min(threads, pivots whose
    /// solve the memo does not hold) threads, and only when the oracle
    /// certifies purity (Oracle::verdict_fingerprint): a warm auction
    /// the memo answers starts no thread, and an oracle without a
    /// fingerprint (one with a fault hook) is queried in serial order.
    /// Results, oracle query counts and memo hit counts are the same at
    /// every value.
    std::size_t threads = util::hardware_threads();
    /// The memo (market/delta_reclear.hpp): when set and the oracle
    /// certifies purity (Oracle::verdict_fingerprint), this auction
    /// memoizes oracle verdicts and whole pivot solves, and reuses the
    /// previous run's memo whenever the offered pool differs by at most
    /// `delta_max_links` links under an unchanged context (solving cold,
    /// with the memo dropped, otherwise). A fresh state is a
    /// per-auction memo, since its first run is cold. Results are
    /// bit-identical to unmemoized solves either way; the threshold
    /// bounds memory and staleness, not correctness. The pointed-to
    /// state must outlive every auction using it, and auctions sharing
    /// one state must not run concurrently with each other.
    DeltaReclearState* delta = nullptr;
    /// The k-link cutover: offered-set symmetric differences larger
    /// than this fall back to a cold solve.
    std::size_t delta_max_links = 8;
};

/// Run the full auction. Returns nullopt when OL itself is unacceptable
/// (no backbone can be provisioned from the offers).
std::optional<AuctionResult> run_auction(const OfferPool& pool, const Oracle& oracle,
                                         const AuctionOptions& opt = {});

/// Binary (de)serialization of a full AuctionResult for the durable
/// epoch runtime's write-ahead journal: byte-exact round trip of every
/// field (the O(1) outcome_index is rebuilt on read, exactly as
/// run_auction builds it).
void write_auction_result(util::BinaryWriter& w, const AuctionResult& result);
AuctionResult read_auction_result(util::BinaryReader& r);

/// The length-prefixed link-id list codec shared by every journaled
/// record that carries links.
void write_links(util::BinaryWriter& w, const std::vector<net::LinkId>& links);
std::vector<net::LinkId> read_links(util::BinaryReader& r);

}  // namespace poc::market
