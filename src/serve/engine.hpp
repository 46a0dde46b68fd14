// The always-on market daemon's query front-end (DESIGN.md §8). One
// ServeEngine sits beside a running sim::EpochRuntime: the runtime's
// on_epoch_commit hook freezes each committed epoch into an immutable
// EpochView and publishes it through the RCU hub; query threads (any
// caller thread: every query method is thread-safe, and the engine
// starts none of its own) answer price quotes, path lookups, and SLA
// status from the published view, never waiting on rollover work.
// The answers themselves are the read path shared with the replica
// tier (serve/epoch_view.hpp); the engine adds admission control
// (usage_meter) in front of every query. Point-in-time queries
// materialize historical epochs from the state-history store (newest
// snapshot <= N plus a read-only journal-suffix replay) without
// disturbing the live runtime's journal. All of it is strictly
// read-only with respect to the market: a journaled run with a query
// storm replays bit-identical to one without.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "serve/epoch_view.hpp"
#include "serve/usage_meter.hpp"
#include "serve/view_hub.hpp"
#include "sim/runtime.hpp"

namespace poc::serve {

/// Admission cost per query class, in meter units. Historical
/// queries replay journal suffixes and are priced accordingly.
inline constexpr double kQuoteUnits = 1.0;
inline constexpr double kPathUnits = 2.0;
inline constexpr double kSlaUnits = 1.0;
inline constexpr double kHistoryUnits = 8.0;

struct ServeOptions {
    MeterOptions meter;
};

class ServeEngine {
public:
    /// `pool`, `tm`, and `runtime_opt` must match the runtime being
    /// served — they identify the journal generation for point-in-time
    /// queries (same configuration fingerprint rule as recovery).
    ServeEngine(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                sim::RuntimeOptions runtime_opt, ServeOptions opt = {});
    ~ServeEngine();

    /// Install this engine as `opt`'s commit subscriber. The returned
    /// reference is `opt` itself (builder style).
    sim::RuntimeOptions& attach(sim::RuntimeOptions& opt);

    /// The commit hook body: freeze + publish. Never throws (a failed
    /// build is counted, the previous epoch stays published).
    void publish(const sim::EpochCommit& commit) noexcept;

    /// Newest published epoch (nullptr before the first commit).
    std::shared_ptr<const EpochView> current() const { return hub_.current(); }
    std::uint64_t rollovers() const { return hub_.published_count(); }

    QuoteReply quote(const std::string& account, std::string_view bp_name);

    PathReply path(const std::string& account, net::NodeId src, net::NodeId dst);

    SlaReply sla(const std::string& account);

    /// Point-in-time: the market as of exactly `completed_epochs`
    /// committed epochs, bit-identical to what a from-scratch run of
    /// that length would publish.
    HistoryReply at_epoch(const std::string& account, std::uint64_t completed_epochs);

    UsageMeter& meter() noexcept { return meter_; }

private:
    /// Admission at the current serving time (completed_epochs).
    Admission admit(const std::string& account, double units);

    const market::OfferPool& pool_;
    const net::TrafficMatrix& tm_;
    sim::RuntimeOptions runtime_opt_;

    ViewHub hub_;
    UsageMeter meter_;
};

}  // namespace poc::serve
