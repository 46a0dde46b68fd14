// The serve daemon's unit of publication: one epoch's market results
// frozen into an immutable value (DESIGN.md §8). The runtime hands the
// daemon borrowed references at commit time (sim::EpochCommit); this
// module copies exactly what queries need — per-BP quotes, the
// provisioned backbone with its shortest-path trees, ledger balances,
// SLA verdict — into a heap object that is never mutated again. The
// hub (view_hub.hpp) then swaps a shared_ptr to it atomically, so
// readers hold a consistent epoch for as long as they keep the
// pointer, across any number of later rollovers. Turning a view into a
// reply lives here too, once, for both serving tiers.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/ledger.hpp"
#include "market/vcg.hpp"
#include "net/shortest_path.hpp"
#include "serve/usage_meter.hpp"
#include "sim/runtime.hpp"

namespace poc::serve {

/// One bandwidth provider's standing in the epoch's auction: what a
/// price-quote query answers.
struct BpQuote {
    std::string name;
    /// VCG payment to this BP this epoch (its clearing price).
    util::Money payment;
    util::Money bid_cost;
    /// Payment-over-bid margin (P-C)/C.
    double pob = 0.0;
    std::size_t links_won = 0;
};

/// The delivered-fraction contract target SLA queries are graded at.
inline constexpr double kSlaDeliveredTarget = 0.999;

/// The paper's availability SLA, graded from the epoch's flow results.
enum class SlaStatus : std::uint8_t {
    kHealthy = 0,
    /// Served, but on the degraded (relaxed-constraint) path or with
    /// the breaker open / links oversubscribed.
    kDegraded,
    /// Delivered fraction below the contract target.
    kViolated,
    /// No backbone was provisioned this epoch.
    kUnprovisioned,
};

const char* sla_status_name(SlaStatus status);

/// Immutable snapshot of one committed epoch. Built once (on the
/// runtime's commit thread or from a materialized historical state),
/// then only read — every member is value-owned, nothing points back
/// into the runtime.
struct EpochView {
    std::size_t epoch = 0;
    std::size_t completed_epochs = 0;
    /// Reconstructed from the journal on daemon restart rather than
    /// computed fresh this process.
    bool replayed = false;

    sim::EpochRecord record;
    bool provisioned = false;
    util::Money total_outlay;
    util::Money virtual_cost;
    /// Per-BP quotes in bid order.
    std::vector<BpQuote> quotes;

    /// The winning link set (empty when unprovisioned).
    std::vector<net::LinkId> backbone;
    /// Shortest-path tree per source node over `backbone`, weighted by
    /// length — path queries answer from these without touching the
    /// graph again. Index = node index.
    std::vector<net::ShortestPathTree> trees;

    /// Net balance per party with ledger activity, in first-seen order.
    std::vector<std::pair<core::Party, util::Money>> balances;
    util::Money poc_net;

    /// SLA verdict at `delivered_target` (served at
    /// kSlaDeliveredTarget).
    SlaStatus sla(double delivered_target) const;

    const BpQuote* quote_for(std::string_view bp_name) const;
    std::optional<util::Money> balance(core::Party party) const;
};

/// Freeze one epoch's results into a view. `graph` must outlive the
/// call only (trees are materialized eagerly); the returned view owns
/// everything it answers from. `previous`, when given, is a view built
/// over the same graph (the one a tier last published): if its
/// backbone is this epoch's, its path trees are copied instead of
/// recomputed. The view is the same either way, byte for byte.
std::shared_ptr<const EpochView> build_epoch_view(
    const net::Graph& graph, std::size_t epoch, std::size_t completed_epochs, bool replayed,
    const sim::EpochRecord& record, const std::optional<market::AuctionResult>& auction,
    const core::Ledger& ledger, const EpochView* previous = nullptr);

/// Convenience: freeze straight from the runtime's commit callback.
std::shared_ptr<const EpochView> build_epoch_view(const net::Graph& graph,
                                                  const sim::EpochCommit& commit,
                                                  const EpochView* previous = nullptr);

/// Freeze the newest epoch of a materialized historical state
/// (sim::materialize_state_at). Requires at least one epoch.
std::shared_ptr<const EpochView> build_epoch_view(const net::Graph& graph,
                                                  const sim::RuntimeState& state,
                                                  const EpochView* previous = nullptr);

/// Canonical byte serialization of everything a view *answers from*:
/// epoch, record, quotes, backbone, path trees, balances. The one
/// field excluded is `replayed` — it is provenance (how this process
/// learned the epoch), not market state, and it is exactly what
/// legitimately differs between a leader's freshly-computed view and
/// a follower's journal-replayed one. Two views serving identical
/// answers encode identically, so the replication property tests can
/// assert leader/follower bit-identity per epoch with one comparison.
std::string encode_epoch_view(const EpochView& view);

// The one read path. The leader (ServeEngine) and a replica (Follower)
// answer every query with the bodies below, so a client cannot tell
// which tier served it: only ServeError::kStaleView betrays a lagging
// replica. Each tier adds just its gate in front (admission on the
// leader, the staleness bound on a replica) and answers kNotServing
// (a default reply) until its first view is published.

struct QuoteReply {
    ServeError code = ServeError::kNotServing;
    std::size_t epoch = 0;
    BpQuote quote;
    util::Money total_outlay;
};

struct PathReply {
    ServeError code = ServeError::kNotServing;
    std::size_t epoch = 0;
    std::vector<net::LinkId> links;
    double length_km = 0.0;
};

struct SlaReply {
    ServeError code = ServeError::kNotServing;
    std::size_t epoch = 0;
    SlaStatus status = SlaStatus::kUnprovisioned;
    double delivered_fraction = 0.0;
    bool degraded = false;
    bool breaker_open = false;
};

struct HistoryReply {
    ServeError code = ServeError::kNotServing;
    /// The view as of `completed_epochs` target (null on error).
    std::shared_ptr<const EpochView> view;
};

/// A gate's refusal: a reply carrying only `code`.
template <typename Reply>
Reply refusal(ServeError code) {
    Reply reply;
    reply.code = code;
    return reply;
}

/// `bp_name`'s standing in the view's auction (kUnknownBp when it did
/// not bid).
QuoteReply quote_reply(const EpochView& view, std::string_view bp_name);

/// Shortest path over the view's backbone (kUnknownNode for an invalid
/// or out-of-range node, kUnreachable when `dst` is cut off).
PathReply path_reply(const EpochView& view, net::NodeId src, net::NodeId dst);

/// The view's SLA standing, graded at kSlaDeliveredTarget.
SlaReply sla_reply(const EpochView& view);

/// Point-in-time: the market as of exactly `completed_epochs` committed
/// epochs, materialized from the state history (newest snapshot <= N
/// plus a read-only journal-suffix replay), bit-identical to what a
/// from-scratch run of that length would publish. Never disturbs a
/// live runtime's journal. kHistoryUnavailable for 0 or for an epoch
/// the history cannot prove.
HistoryReply history_reply(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                           const sim::RuntimeOptions& runtime_opt,
                           std::uint64_t completed_epochs);

}  // namespace poc::serve
