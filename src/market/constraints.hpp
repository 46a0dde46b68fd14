// The acceptability oracle A(OL) of the paper's auction (section 3.3):
// a set of links is acceptable when it "provides enough bandwidth to
// handle the traffic matrix and obeys whatever other constraints the POC
// desires". We implement the paper's three evaluated constraints plus a
// fidelity knob: the exhaustive checks are exact but expensive, so the
// winner-determination search can run against cheaper conservative
// surrogates and validate the final selection exhaustively.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>

#include "net/failure.hpp"
#include "net/graph.hpp"
#include "net/mcf.hpp"
#include "util/retry.hpp"

namespace poc::market {

/// The paper's Figure 2 constraint scenarios.
enum class ConstraintKind {
    /// #1: the selected links carry the offered traffic matrix.
    kLoad,
    /// #2: ... even after any single link failure.
    kSingleFailure,
    /// #3: ... with each pair's primary path failed simultaneously.
    kPerPairFailure,
};

const char* constraint_name(ConstraintKind kind);

/// How thoroughly acceptability is checked.
enum class OracleFidelity {
    /// Full semantics: exhaustive failure re-checks (net/failure.hpp).
    kExact,
    /// Conservative surrogate for the search loop: greedy-routability
    /// with derated capacity plus 2-edge-connectivity between demand
    /// endpoints for kSingleFailure; greedy-only checks elsewhere.
    kFast,
};

struct OracleOptions {
    OracleFidelity fidelity = OracleFidelity::kExact;
    /// Capacity derate used by the kFast single-failure surrogate: the
    /// matrix must fit when every link carries at most this fraction.
    double fast_failure_derate = 0.65;
    /// FPTAS epsilon for exact-mode fallbacks.
    double fptas_eps = 0.15;
    /// Optional shared shortest-path-tree cache (net/path_cache.hpp)
    /// for the per-pair constraint's primary-path computation. Clarke
    /// pivots evaluate near-identical masks, so one cache across an
    /// auction turns most of those SSSPs into lookups. Must outlive
    /// the oracle; thread-safe; null disables caching. Results are
    /// identical either way.
    net::PathCache* path_cache = nullptr;
};

class Oracle;

/// What one winner-determination deletion pass carries from query to
/// query so the kFast oracle routes only what a deletion changed
/// (DESIGN.md §6). A full evaluation that accepts arms it with the log
/// of each of its greedy runs: per demand, in placement order, the
/// placements and the footprint segment (every link of every path its
/// searches returned). A later run over a set that keeps the first j
/// demands' segments replays those j placements and searches from
/// demand j on; when the set keeps every segment, the run is the armed
/// one and accepts without routing.
///
/// That holds only for subsets of the set that armed the witness. The
/// caller promises it: a pass only deletes links, and restores exactly
/// the batches that were rejected. A witness belongs to one pass on one
/// thread. An accept re-arms it with the new logs; a reject leaves it
/// as it is; an accept the oracle did not evaluate (a memo hit) disarms
/// it. It also carries the pass's greedy scratch, so the pass's greedy
/// runs reuse one set of buffers.
class OracleWitness {
public:
    bool armed() const noexcept { return armed_by_ != nullptr; }
    void disarm() noexcept { armed_by_ = nullptr; }

private:
    friend class AcceptabilityOracle;

    /// One greedy run of an evaluation: the armed run's log, and the
    /// buffer a re-run logs into, swapped in when the query accepts.
    struct Run {
        net::GreedyLog armed;
        net::GreedyLog next;
    };

    /// The oracle whose greedy runs the logs describe.
    const Oracle* armed_by_ = nullptr;
    /// An evaluation's greedy runs: one, or kPerPairFailure's two (the
    /// plain run, then the run excluding the primaries).
    std::array<Run, 2> runs_;
    /// kPerPairFailure: the primary paths the armed run excluded.
    net::CommodityExclusions primaries_;
    /// The pass's greedy scratch and the queried set's incidence.
    net::GreedyWorkspace greedy_;
};

/// The interface the winner-determination search drives: is the active
/// link set acceptable? `accepts()` funnels every query through an
/// atomic counter so the `oracle_queries` diagnostic stays exact when
/// the auction engine fans Clarke-pivot re-solves across threads.
/// Implementations provide accepts_impl(), which must be a pure
/// function of the active link set, and safe to call concurrently when
/// the oracle has a verdict_fingerprint(): run_auction fans pivots out
/// only over such an oracle, and queries one without a fingerprint from
/// the calling thread alone.
/// Oracles that can use or forward a witness also override
/// accepts_witnessed(); the default drops the witness, which is always
/// sound.
class Oracle {
public:
    virtual ~Oracle() = default;

    /// The verdict for the active set. A non-null `witness` may let the
    /// oracle answer without evaluating; the verdict is the same.
    bool accepts(const net::Subgraph& sg, OracleWitness* witness = nullptr) const {
        queries_.fetch_add(1, std::memory_order_relaxed);
        return witness != nullptr ? accepts_witnessed(sg, *witness) : accepts_impl(sg);
    }

    /// Total accepts() calls over this oracle's lifetime.
    std::size_t query_count() const noexcept {
        return queries_.load(std::memory_order_relaxed);
    }

    /// A 64-bit digest of everything a verdict depends on *besides* the
    /// active link set itself: two oracles with equal fingerprints
    /// answer every query identically. This is the purity certificate
    /// cross-auction memoization needs (market/delta_reclear.hpp): a
    /// verdict cached under one fingerprint may be replayed in a later
    /// auction with the same fingerprint. Returning nullopt (the
    /// default) opts out — the oracle cannot certify that its answers
    /// are a pure function of the link set across runs (e.g. a fault
    /// hook is installed), so delta re-clearing falls back to cold.
    virtual std::optional<std::uint64_t> verdict_fingerprint() const { return std::nullopt; }

protected:
    Oracle() = default;
    // Copies carry the count, not the atomic (atomics are not copyable).
    Oracle(const Oracle& other) noexcept : queries_(other.query_count()) {}
    Oracle& operator=(const Oracle& other) noexcept {
        queries_.store(other.query_count(), std::memory_order_relaxed);
        return *this;
    }

private:
    virtual bool accepts_impl(const net::Subgraph& sg) const = 0;
    virtual bool accepts_witnessed(const net::Subgraph& sg, OracleWitness& /*witness*/) const {
        return accepts_impl(sg);
    }

    mutable std::atomic<std::size_t> queries_{0};
};

/// Stateless functor: does the active link set satisfy the constraint
/// for the given traffic matrix?
class AcceptabilityOracle final : public Oracle {
public:
    AcceptabilityOracle(const net::Graph& graph, net::TrafficMatrix tm, ConstraintKind kind,
                        OracleOptions opt = {});

    ConstraintKind kind() const noexcept { return kind_; }
    const net::TrafficMatrix& traffic() const noexcept { return tm_; }
    const net::Graph& graph() const noexcept { return *graph_; }

    /// Digest of (constraint, fidelity knobs, graph content, traffic
    /// matrix) — everything accepts_impl reads. The path_cache pointer
    /// is deliberately excluded: cached trees only change the work, not
    /// the verdicts.
    std::optional<std::uint64_t> verdict_fingerprint() const override;

private:
    /// What a node must carry for greedy routing to succeed: the
    /// demands ending there, each less greedy's fit tolerance.
    struct NodeDemand {
        net::NodeId node;
        double need = 0.0;
        /// The same demands' plain sum; scales the screen's margin.
        double gbps = 0.0;
    };

    bool accepts_impl(const net::Subgraph& sg) const override;
    bool accepts_witnessed(const net::Subgraph& sg, OracleWitness& witness) const override;
    bool accepts_fast(const net::Subgraph& sg, OracleWitness* witness) const;
    bool accepts_exact(const net::Subgraph& sg) const;
    /// Points `gopt` at greedy run `run` of `witness` (none without
    /// one): the run logs into the spare buffer and, when `resumable`
    /// (the armed run had the same inputs), replays the armed log's
    /// intact prefix. True when that prefix is the whole armed run: the
    /// run over `sg` is that run, so it accepts without routing.
    bool plan_run(const net::Subgraph& sg, OracleWitness* witness, std::size_t run,
                  bool resumable, net::GreedyRoutingOptions& gopt) const;
    /// True when some node's demand exceeds its active capacity at
    /// `utilization_cap`, so greedy routing must fail. `incidence` is
    /// the queried set's, built from exactly that set.
    bool node_cut(const net::ActiveAdjacency& incidence, double utilization_cap) const;
    /// Builds the incidence of `sg` into `gopt.workspace`, then runs the
    /// node-cut screen and greedy over it. False, with the rejecting
    /// screen's verdict counter bumped, when either rejects.
    bool screen_and_route(const net::Subgraph& sg, const net::GreedyRoutingOptions& gopt) const;

    const net::Graph* graph_;
    net::TrafficMatrix tm_;
    ConstraintKind kind_;
    OracleOptions opt_;
    /// kFast kLoad screens connectivity only for these demands (usually
    /// none): see accepts_fast.
    net::TrafficMatrix unproven_by_greedy_;
    /// The node-cut screen's table: nodes with a positive need. Empty
    /// when the screen is off (see the constructor).
    std::vector<NodeDemand> node_demands_;
};

/// Decorator that makes any oracle *fallible*: before each query it
/// invokes an optional fault hook — which may throw
/// util::TransientError to model a failed or degraded upstream — and
/// polls an optional cooperative deadline (util::Deadline), so a slow
/// oracle aborts with DeadlineExceeded at its next query boundary
/// instead of stalling the auction. The durable epoch runtime
/// (sim/runtime.hpp) wraps its clearing oracle in this to give the
/// retry/breaker layer something to catch; with no hook and no
/// deadline set it is a transparent pass-through.
///
/// Thread-safety: set_deadline() must be called only while no auction
/// is in flight (the runtime sets it around each run_auction call). A
/// fault hook is never called concurrently: it removes the fingerprint,
/// so run_auction queries this oracle in serial order on the calling
/// thread whatever AuctionOptions::threads says. The deadline's clock
/// is read from pivot threads when there is no hook.
class FallibleOracle final : public Oracle {
public:
    using FaultHook = std::function<void()>;

    explicit FallibleOracle(const Oracle& inner, FaultHook fault = {})
        : inner_(&inner), fault_(std::move(fault)) {}

    void set_deadline(const util::Deadline* deadline) noexcept { deadline_ = deadline; }

    /// Transparent pass-throughs stay pure; with a fault hook installed
    /// the query *schedule* is observable (the hook may throw on the
    /// Nth query), so memoizing across runs would change which queries
    /// reach it — opt out. A deadline alone does not affect verdicts,
    /// only liveness, so it does not break purity.
    std::optional<std::uint64_t> verdict_fingerprint() const override {
        if (fault_) return std::nullopt;
        return inner_->verdict_fingerprint();
    }

private:
    bool accepts_impl(const net::Subgraph& sg) const override { return forward(sg, nullptr); }
    bool accepts_witnessed(const net::Subgraph& sg, OracleWitness& witness) const override {
        return forward(sg, &witness);
    }

    bool forward(const net::Subgraph& sg, OracleWitness* witness) const {
        if (fault_) fault_();
        if (deadline_ != nullptr) deadline_->check();
        return inner_->accepts(sg, witness);
    }

    const Oracle* inner_;
    FaultHook fault_;
    const util::Deadline* deadline_ = nullptr;
};

}  // namespace poc::market
