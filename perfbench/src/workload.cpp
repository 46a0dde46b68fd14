#include "workload.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "market/delta_reclear.hpp"
#include "market/pricing.hpp"
#include "market/vcg.hpp"
#include "net/path_cache.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "serve/engine.hpp"
#include "sim/runtime.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "topo/bp_network.hpp"
#include "topo/poc_topology.hpp"
#include "topo/traffic.hpp"
#include "util/hash.hpp"
#include "util/journal.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace poc;

enum class InstanceKind { kPaper, kRandom };

/// One workload: semantic inputs only. Every engine knob of the
/// runtime, the auction and the serving engine stays at its default.
struct WorkloadSpec {
    const char* name;
    InstanceKind instance;
    /// Random-instance family parameters (InstanceKind::kRandom).
    std::size_t nodes;
    std::size_t demands;
    /// Instance generator seed. The instance and the runtime's demand
    /// draws are part of the workload; --seed drives the serving load.
    std::uint64_t instance_seed;
    market::ConstraintKind constraint;
    market::OracleFidelity fidelity;
    double jitter;
    /// Untimed epochs per round that end the set-up: one where the
    /// first epoch warms the memo, none where every epoch clears cold.
    std::size_t warmup_epochs;
    /// Timed epochs per round, after the warm-up.
    std::size_t timed_epochs;
    std::size_t snapshot_interval;
    /// Whether the open-loop serving load runs beside the timed epochs.
    bool serving;
};

constexpr std::array<WorkloadSpec, 2> kWorkloads{{
    {"clear-paper", InstanceKind::kPaper, 0, 0, 42, market::ConstraintKind::kLoad,
     market::OracleFidelity::kFast, 0.05, 0, 2, 2, false},
    {"steady-serve", InstanceKind::kRandom, 40, 200, 9401, market::ConstraintKind::kLoad,
     market::OracleFidelity::kExact, 0.0, 1, 1000, 16, true},
}};

// The serving load, on steady-serve only: on a 4-vCPU VM its readers
// slowed a single-threaded cold clear by 10-50% from run to run. No
// request rate for the paper's market is published, so it is a light
// load: 2000 mix queries/s in all, 0.08% of the 2.5 M queries/s that
// one closed-loop micro_serve reader sustains beside 2 ms rollovers
// (BENCH_serve.json). Latency is then service beside rollovers, not
// queueing. The mix is micro_serve's quote/path/SLA round robin. An
// uncached at_epoch query costs ~8 ms on steady-serve; 10/s keeps the
// point-in-time reader under a tenth of one thread.
constexpr double kMixRate = 2000.0;    // queries/s over all mix readers
constexpr double kHistoryRate = 10.0;  // queries/s
constexpr std::size_t kMaxMixReaders = 2;
/// Share of the slowest mix queries left out of the mean service time:
/// a reader preempted mid-query adds milliseconds to a sub-microsecond
/// sample.
constexpr double kServiceTrim = 0.01;
/// Set-ups per run: runs with fewer rounds are topped up with
/// set-up-only rounds. A steady-serve run makes about this many rounds;
/// a clear-paper set-up (no warm-up epoch) takes milliseconds.
constexpr std::size_t kMinSetups = 10;
/// Restarts per round: at least the count and the time, at most the cap.
constexpr std::size_t kMinRestarts = 5;
constexpr double kMinRestartSeconds = 0.5;
constexpr std::size_t kMaxRestarts = 5000;
/// A reader sleeps until this close to a query's due time, then spins,
/// so wake-up jitter does not pose as query latency.
constexpr auto kSpinMargin = std::chrono::microseconds(100);

// End-to-end metrics with a bound: only those whose run-to-run spread
// on a shared 4-vCPU host stays inside it on every workload. The other
// user-facing timings (epoch p50, restart, query service and latency,
// history latency) swing there by more than any allowed bound on some
// workload, so they travel unbounded in the per-layer list and in the
// report.
const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"epochs_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

/// The first kUnboundedTimings are user-facing timings without a bound.
constexpr std::size_t kUnboundedTimings = 6;
const std::vector<MetricDef> kPerLayer = {
    {"epoch_ms.p50", "ms"},
    {"restart_ms.p50", "ms"},
    {"query_service_us.mean", "us"},
    {"query_us.p50", "us"},
    {"query_us.p99", "us"},
    {"history_ms.p50", "ms"},
    {"market.oracle.self_ms", "ms"},
    {"market.auction.oracle_queries", "count"},
    {"net.sssp.runs", "count"},
    {"market.auction.self_ms", "ms"},
    {"market.auction.pivots", "count"},
    {"util.pool.tasks_executed", "count"},
    {"util.pool.steals", "count"},
    {"market.delta.warm_runs", "count"},
    {"market.delta.cold_runs", "count"},
    {"market.delta.warm_ratio", "ratio"},
    {"market.auction.oracle_cache_hit_ratio", "ratio"},
    {"sim.stage.flow_ms", "ms"},
    {"net.path_cache.hit_ratio", "ratio"},
    {"core.flows.demands_admitted", "count"},
    {"sim.stage.auction_ms", "ms"},
    {"sim.stage.provisioning_ms", "ms"},
    {"sim.stage.settlement_ms", "ms"},
    {"sim.epoch.self_ms", "ms"},
    {"util.journal.append_ms", "ms"},
    {"util.journal.bytes", "bytes"},
    {"util.journal.appends", "count"},
    {"util.state_history.snapshot_ms", "ms"},
    {"util.state_history.compaction_ms", "ms"},
    {"util.state_history.snapshot_bytes", "bytes"},
    {"sim.runtime.replayed_records", "count"},
    {"serve.publish_ms", "ms"},
    {"serve.quote_us", "us"},
    {"serve.path_us", "us"},
    {"serve.sla_us", "us"},
    {"serve.rollovers", "count"},
    {"bench.generator_late_ms", "ms"},
    {"topo.build_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
};

/// Counters read as obs::Snapshot deltas around each round's timed
/// epochs. All of them repeat exactly: the epoch inputs are fixed per
/// workload and the serving load touches none of them.
const std::vector<std::string> kLoopCounters = {
    "market.auction.oracle_queries", "market.auction.oracle_cache_hits",
    "market.auction.pivots",         "market.delta.warm_runs",
    "market.delta.cold_runs",        "net.path_cache.hits",
    "net.path_cache.misses",         "core.flows.demands_admitted",
    "util.journal.bytes",            "util.journal.appends",
    "util.state_history.snapshot_bytes", "util.pool.tasks_executed",
    "util.pool.steals",              "serve.rollovers",
};

const WorkloadSpec& find_spec(const std::string& name) {
    for (const WorkloadSpec& w : kWorkloads) {
        if (name == w.name) return w;
    }
    throw std::invalid_argument("unknown workload '" + name + "'");
}

// ---------------------------------------------------------------------
// Instances

struct Instance {
    topo::PocTopology topology;  // owns the graph of the paper instance
    net::Graph graph;            // owns the graph of a random instance
    net::TrafficMatrix tm;
    std::optional<market::OfferPool> pool;
};

/// The paper-scale instance fig2_auction builds: 20 BPs, gravity
/// demands aggregated to the top 20.
void build_paper(Instance& inst, const WorkloadSpec& spec) {
    topo::BpGeneratorOptions bopt;
    bopt.seed = spec.instance_seed;
    topo::GravityOptions gopt;
    gopt.total_gbps = 5000.0;
    const auto bps = topo::generate_bp_networks(bopt);
    inst.topology = topo::build_poc_topology(bps, {});
    inst.pool.emplace(market::make_offer_pool(inst.topology));
    inst.tm = topo::aggregate_top_n(topo::gravity_traffic(inst.topology, gopt), 20);
}

/// The micro_serve instance family: a random connected multigraph
/// (chain plus 2n extra links) offered across 4 BPs. The draws are made
/// in bench/micro_serve.cpp's order, so the same seed gives its instance.
void build_random(Instance& inst, const WorkloadSpec& spec) {
    util::Rng rng(spec.instance_seed);
    const std::size_t n = spec.nodes;
    std::vector<market::BpBid> bids;
    for (std::size_t b = 0; b < 4; ++b) {
        bids.emplace_back(market::BpId{b}, "BP" + std::to_string(b + 1));
    }
    inst.graph.add_nodes(n);
    const auto offer = [&](net::LinkId l) {
        const auto owner = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{4}));
        bids[owner].offer(l, util::Money::from_dollars(rng.uniform(50.0, 500.0)));
    };
    const auto link = [&](std::size_t a, std::size_t b) {
        offer(inst.graph.add_link(net::NodeId{a}, net::NodeId{b}, rng.uniform(50.0, 400.0),
                                  rng.uniform(100.0, 2000.0)));
    };
    for (std::size_t i = 0; i + 1 < n; ++i) link(i, i + 1);
    for (std::size_t e = 0; e < 2 * n; ++e) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto b = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (a == b) b = (b + 1) % n;
        link(a, b);
    }
    for (std::size_t d = 0; d < spec.demands; ++d) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto t = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (s == t) t = (t + 1) % n;
        inst.tm.push_back({net::NodeId{s}, net::NodeId{t}, rng.uniform(0.05, 0.3)});
    }
    inst.pool.emplace(std::move(bids), market::VirtualLinkContract{}, inst.graph);
}

std::unique_ptr<Instance> build_instance(const WorkloadSpec& spec) {
    auto inst = std::make_unique<Instance>();
    if (spec.instance == InstanceKind::kPaper) {
        build_paper(*inst, spec);
    } else {
        build_random(*inst, spec);
    }
    return inst;
}

// ---------------------------------------------------------------------
// Output checks

/// Operations attempted and failed, with the first few failures kept
/// for the report. Not thread-safe: each thread keeps its own and the
/// epoch thread merges them.
struct Tally {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;

    /// Count one operation; `describe()` names it only when it failed,
    /// so passing operations cost no string building.
    template <class Describe>
    void op(bool ok, Describe&& describe) {
        ++attempted;
        if (!ok) {
            ++failed;
            if (notes.size() < 8) notes.push_back(describe());
        }
    }
    void merge(const Tally& o) {
        attempted += o.attempted;
        failed += o.failed;
        for (const std::string& n : o.notes) {
            if (notes.size() < 8) notes.push_back(n);
        }
    }
};

/// An auction result with its work diagnostics (oracle queries and memo
/// hits) zeroed: those depend on the caches in use, not on the market
/// outcome, so an engine change may move them without changing a result.
market::AuctionResult scrubbed(market::AuctionResult a) {
    a.oracle_queries = 0;
    a.oracle_cache_hits = 0;
    a.solve_cache_hits = 0;
    return a;
}

/// The durable state a run ends in, as sim::encode_runtime_state
/// serializes it: every epoch's record and scrubbed auction result, the
/// ledger, and the RNG position.
std::string outcome_bytes(const sim::RuntimeOutcome& out) {
    sim::RuntimeState st{out.epochs, out.auctions, out.ledger, out.final_rng,
                         out.breaker_open_epochs};
    for (std::optional<market::AuctionResult>& a : st.auctions) {
        if (a) a = scrubbed(*a);
    }
    return sim::encode_runtime_state(st);
}

/// An auction result's serialized market outcome: selection, outcomes,
/// payments and outlay.
std::string market_bytes(const market::AuctionResult& a) {
    util::BinaryWriter w;
    market::write_auction_result(w, scrubbed(a));
    return w.bytes();
}

std::string hex64(std::uint64_t v) {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

/// The reference digest stored with the benchmark for `workload`
/// (reference.txt lines: "<workload> <hex>"). The epoch inputs do not
/// depend on --seed, so one reference covers every seed.
std::optional<std::string> reference_digest(const std::string& path, const std::string& workload) {
    std::ifstream in(path);
    std::string name;
    std::string hex;
    while (in >> name >> hex) {
        if (name == workload) return hex;
    }
    return std::nullopt;
}

// ---------------------------------------------------------------------
// The open-loop serving load

/// Reader threads of the serving load. With the epoch thread they stay
/// within `nproc` (one thread over it only on a single-core host): the
/// point-in-time reader needs a third core, the second mix reader a
/// fourth. The mix rate is split over the mix readers, so the load
/// does not depend on the host.
struct ReaderPlan {
    std::size_t mix_readers = 1;
    bool history = false;
};

ReaderPlan reader_plan(std::size_t nproc) {
    const std::size_t spare = nproc > 1 ? nproc - 1 : 1;
    ReaderPlan p;
    p.history = spare >= 2;
    p.mix_readers = std::min(kMaxMixReaders, spare - (p.history ? 1 : 0));
    return p;
}

ReaderPlan host_reader_plan() {
    return reader_plan(std::max(1u, std::thread::hardware_concurrency()));
}

struct QuerySamples {
    /// Per query type, from due time.
    std::vector<double> quote_us;
    std::vector<double> path_us;
    std::vector<double> sla_us;
    /// Every mix query, from send to reply.
    std::vector<double> service_us;
    std::vector<double> late_us;
    std::vector<double> history_ms;
    std::uint64_t history_hits = 0;
    Tally tally;

    void merge(const QuerySamples& o) {
        for (const auto& [dst, src] :
             {std::pair{&quote_us, &o.quote_us}, std::pair{&path_us, &o.path_us},
              std::pair{&sla_us, &o.sla_us}, std::pair{&service_us, &o.service_us},
              std::pair{&late_us, &o.late_us}, std::pair{&history_ms, &o.history_ms}}) {
            dst->insert(dst->end(), src->begin(), src->end());
        }
        history_hits += o.history_hits;
        tally.merge(o.tally);
    }
};

void wait_until(Clock::time_point due) {
    if (Clock::now() < due - kSpinMargin) std::this_thread::sleep_until(due - kSpinMargin);
    while (Clock::now() < due) {
    }
}

/// Reader threads and the point-in-time reader, started once the
/// round's set-up has committed and stopped at its last commit.
class ServeLoad {
public:
    ServeLoad(serve::ServeEngine& engine, const market::OfferPool& pool,
              const net::TrafficMatrix& tm, std::size_t snapshot_interval, std::uint64_t seed,
              ReaderPlan plan)
        : engine_(engine),
          pool_(pool),
          tm_(tm),
          snapshot_interval_(snapshot_interval),
          seed_(seed),
          plan_(plan),
          samples_(plan.mix_readers + 1) {}
    ~ServeLoad() { stop(); }
    ServeLoad(const ServeLoad&) = delete;
    ServeLoad& operator=(const ServeLoad&) = delete;

    void start() {
        const Clock::time_point t0 = Clock::now();
        for (std::size_t r = 0; r < plan_.mix_readers; ++r) {
            threads_.emplace_back([this, r, t0] { read_loop(r, t0); });
        }
        if (plan_.history) threads_.emplace_back([this, t0] { history_loop(t0); });
    }

    /// Stop and join every thread (idempotent).
    void stop() {
        stop_.store(true, std::memory_order_release);
        for (std::thread& t : threads_) {
            if (t.joinable()) t.join();
        }
        threads_.clear();
    }

    QuerySamples take() {
        QuerySamples all;
        for (const QuerySamples& s : samples_) all.merge(s);
        return all;
    }

private:
    void read_loop(std::size_t r, Clock::time_point t0) {
        QuerySamples& out = samples_[r];
        const auto readers = static_cast<double>(plan_.mix_readers);
        const Schedule sched(t0, kMixRate / readers, static_cast<double>(r) / readers);
        util::Rng rng(seed_ * 7919 + r);
        const std::string account = "reader-" + std::to_string(r);
        const auto& bids = pool_.bids();
        Clock::time_point due;
        Clock::time_point sent;
        const auto record = [&](std::vector<double>& by_type) {
            const DueTiming t = due_timing(due, sent, Clock::now());
            by_type.push_back(t.latency_us);
            out.service_us.push_back(t.service_us);
            out.late_us.push_back(t.late_us);
        };
        for (std::uint64_t k = 0; !stop_.load(std::memory_order_acquire); ++k) {
            due = sched.due(k);
            wait_until(due);
            sent = Clock::now();
            switch (k % 3) {
                case 0: {
                    const auto& bid = bids[static_cast<std::size_t>(
                        rng.uniform_int(static_cast<std::uint64_t>(bids.size())))];
                    const serve::QuoteReply q = engine_.quote(account, bid.name());
                    record(out.quote_us);
                    out.tally.op(q.code == serve::ServeError::kOk &&
                                     q.quote.payment >= q.quote.bid_cost,
                                 [&] {
                                     return "quote " + bid.name() + " -> " +
                                            serve::serve_error_name(q.code);
                                 });
                    break;
                }
                case 1: {
                    const net::Demand& d = tm_[static_cast<std::size_t>(
                        rng.uniform_int(static_cast<std::uint64_t>(tm_.size())))];
                    const serve::PathReply p = engine_.path(account, d.src, d.dst);
                    record(out.path_us);
                    out.tally.op(p.code == serve::ServeError::kOk && !p.links.empty() &&
                                     p.length_km > 0.0,
                                 [&] {
                                     return std::string("path -> ") +
                                            serve::serve_error_name(p.code);
                                 });
                    break;
                }
                default: {
                    const serve::SlaReply s = engine_.sla(account);
                    record(out.sla_us);
                    out.tally.op(s.code == serve::ServeError::kOk &&
                                     s.delivered_fraction >= 0.0 && s.delivered_fraction <= 1.0,
                                 [&] {
                                     return std::string("sla -> ") +
                                            serve::serve_error_name(s.code);
                                 });
                    break;
                }
            }
        }
    }

    /// Point-in-time queries, always inside the provable range. With
    /// snapshots on, the target is the newest snapshot the runtime has
    /// certainly written (the one before that may be pruned at any
    /// moment); without, any committed epoch (the journal holds all).
    void history_loop(Clock::time_point t0) {
        QuerySamples& out = samples_[plan_.mix_readers];
        const Schedule sched(t0, kHistoryRate, 0.5);
        util::Rng rng(seed_ * 7919 + kMaxMixReaders);
        obs::Counter& hits = obs::registry().counter("serve.history_cache_hits");
        for (std::uint64_t k = 0; !stop_.load(std::memory_order_acquire); ++k) {
            const Clock::time_point due = sched.due(k);
            wait_until(due);
            const auto view = engine_.current();
            const std::uint64_t completed = view ? view->completed_epochs : 0;
            if (completed == 0) continue;
            std::uint64_t target = 0;
            if (snapshot_interval_ > 0) {
                target = (completed - 1) / snapshot_interval_ * snapshot_interval_;
            } else {
                target = 1 + rng.uniform_int(completed);
            }
            if (target == 0) continue;
            const std::uint64_t hits_before = hits.value();
            const Clock::time_point sent = Clock::now();
            const serve::HistoryReply h = engine_.at_epoch("history", target);
            const DueTiming t = due_timing(due, sent, Clock::now());
            out.history_ms.push_back(t.latency_us / 1000.0);
            if (hits.value() != hits_before) ++out.history_hits;
            out.tally.op(h.code == serve::ServeError::kOk && h.view &&
                             h.view->completed_epochs == target,
                         [&] {
                             return "at_epoch " + std::to_string(target) + " -> " +
                                    serve::serve_error_name(h.code);
                         });
        }
    }

    serve::ServeEngine& engine_;
    const market::OfferPool& pool_;
    const net::TrafficMatrix& tm_;
    std::size_t snapshot_interval_;
    std::uint64_t seed_;
    ReaderPlan plan_;
    std::atomic<bool> stop_{false};
    std::vector<QuerySamples> samples_;
    std::vector<std::thread> threads_;
};

// ---------------------------------------------------------------------
// The timing oracle for the traced auction re-run

/// Forwards every query to the wrapped oracle and records it as an
/// `oracle.query` span. Verdicts and the purity fingerprint are the
/// wrapped oracle's, so the auction it drives is unchanged.
class TimingOracle final : public market::Oracle {
public:
    TimingOracle(const market::Oracle& inner, SpanLog& log, std::int64_t epoch)
        : inner_(inner), log_(log), epoch_(epoch) {}

    std::optional<std::uint64_t> verdict_fingerprint() const override {
        return inner_.verdict_fingerprint();
    }

    std::vector<std::int64_t> take_spans() {
        std::lock_guard<std::mutex> lock(mutex_);
        return std::move(spans_);
    }

private:
    bool accepts_impl(const net::Subgraph& sg) const override {
        const Clock::time_point t0 = Clock::now();
        const bool ok = inner_.accepts(sg);
        const std::int64_t id = log_.add("oracle.query", t0, Clock::now(), -1, epoch_);
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(id);
        return ok;
    }

    const market::Oracle& inner_;
    SpanLog& log_;
    std::int64_t epoch_;
    mutable std::mutex mutex_;
    mutable std::vector<std::int64_t> spans_;
};

// ---------------------------------------------------------------------
// Rounds

/// Everything a run accumulates over its rounds.
struct RunData {
    std::vector<double> setup_s;
    std::vector<double> topo_ms;
    /// Commit-to-commit epoch intervals (benchmark checks excluded),
    /// split by whether the round was traced.
    std::vector<double> epoch_ms;
    std::vector<double> traced_epoch_ms;
    std::vector<double> restart_ms;
    std::vector<double> replayed_records;
    QuerySamples queries;
    Tally tally;
    /// Per-round deterministic counter deltas of the epoch loop.
    std::vector<std::map<std::string, std::uint64_t>> loop_counters;
    /// Per-round digests of the final durable state.
    std::vector<std::string> digests;
    // Traced rounds only.
    std::vector<double> oracle_self_ms;
    std::vector<double> auction_self_ms;
    std::map<std::string, std::uint64_t> rerun_counters;
};

std::map<std::string, std::uint64_t> counter_delta(const obs::Snapshot& before,
                                                   const std::vector<std::string>& names) {
    const obs::Snapshot d = obs::Snapshot::capture().delta_since(before);
    std::map<std::string, std::uint64_t> out;
    for (const std::string& n : names) out[n] = d.counter_or(n);
    return out;
}

sim::RuntimeOptions runtime_options(const WorkloadSpec& spec, std::size_t epochs,
                                    const std::string& journal) {
    sim::RuntimeOptions ropt;
    ropt.epochs = epochs;
    ropt.request.constraint = spec.constraint;
    ropt.request.oracle.fidelity = spec.fidelity;
    ropt.demand_jitter = spec.jitter;
    ropt.journal_path = journal;
    ropt.snapshot_interval = spec.snapshot_interval;
    return ropt;
}

serve::ServeOptions serve_options() {
    serve::ServeOptions sopt;
    sopt.meter.quota_units = 1e12;  // admission on, never trips at this load
    return sopt;
}

/// Epoch-thread state of one round, updated from the runtime's hooks.
struct RoundState {
    SpanLog* log = nullptr;  // non-null = traced round
    std::size_t total_epochs = 0;
    Clock::time_point round_start;
    Clock::time_point prev_exit;
    Clock::time_point setup_end;
    std::vector<double> epoch_ms;
    std::array<Clock::time_point, 6> stage_begin{};
    std::array<Clock::time_point, 6> stage_mid{};
    std::vector<std::int64_t> pending;  // spans awaiting their epoch
    obs::Snapshot loop_base;
    Tally tally;
};

const char* stage_span_name(sim::Stage s) {
    switch (s) {
        case sim::Stage::kAuction: return "stage.auction";
        case sim::Stage::kProvisioning: return "stage.provisioning";
        case sim::Stage::kFlowSim: return "stage.flow";
        case sim::Stage::kSettlement: return "stage.settlement";
        case sim::Stage::kSnapshotWrite: return "snapshot";
        case sim::Stage::kCompaction: return "compaction";
    }
    return "stage";
}

void on_stage(RoundState& st, std::size_t epoch, sim::Stage stage, sim::HookPoint point) {
    const Clock::time_point now = Clock::now();
    const auto i = static_cast<std::size_t>(stage);
    if (point == sim::HookPoint::kBefore) {
        st.stage_begin[i] = now;
        return;
    }
    if (point == sim::HookPoint::kMid) {
        st.stage_mid[i] = now;
        return;
    }
    const auto e = static_cast<std::int64_t>(epoch);
    const std::int64_t id = st.log->add(stage_span_name(stage), st.stage_begin[i], now, -1, e);
    if (i < sim::kStageCount) {
        // kMid -> kAfter is the stage's journal append.
        st.log->add("journal.append", st.stage_mid[i], now, id, e);
    }
    st.pending.push_back(id);
}

/// Build one instance and its serving engine; time it as set-up.
struct Setup {
    std::unique_ptr<Instance> inst;
    double topo_ms = 0.0;
};

Setup make_instance_timed(const WorkloadSpec& spec) {
    Setup s;
    const Clock::time_point t0 = Clock::now();
    s.inst = build_instance(spec);
    s.topo_ms = ms_between(t0, Clock::now());
    return s;
}

/// One round: set up, run the epoch loop (beside the serving load on a
/// serving workload), check
/// the outputs, restart on the finished journal, and (traced) re-run
/// the last auction through the timing oracle. A round of 0 timed
/// epochs stops after the set-up: the instance, the serving engine, the
/// runtime, and the workload's warm-up epochs, until their last view is
/// served.
void run_round(const WorkloadSpec& spec, std::size_t timed_epochs, std::uint64_t seed,
               const std::filesystem::path& dir, SpanLog* log, RunData& data) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    RoundState st;
    st.log = log;
    st.total_epochs = spec.warmup_epochs + timed_epochs;
    st.round_start = Clock::now();

    const Setup setup = make_instance_timed(spec);
    const Instance& inst = *setup.inst;
    const market::OfferPool& pool = *inst.pool;
    const sim::RuntimeOptions base_opt = runtime_options(
        spec, std::max<std::size_t>(1, st.total_epochs), (dir / "epochs.wal").string());
    serve::ServeEngine engine(pool, inst.tm, base_opt, serve_options());
    // Snapshots inside the round change which epochs are provable.
    const std::size_t live_interval =
        spec.snapshot_interval < st.total_epochs ? spec.snapshot_interval : 0;
    ServeLoad load(engine, pool, inst.tm, live_interval, seed, host_reader_plan());

    const auto end_setup = [&](Clock::time_point t) {
        st.setup_end = t;
        st.loop_base = obs::Snapshot::capture();
        if (spec.serving && timed_epochs > 0) load.start();
    };
    sim::RuntimeOptions ropt = base_opt;
    ropt.on_epoch_commit = [&](const sim::EpochCommit& c) {
        const Clock::time_point enter = Clock::now();
        engine.publish(c);
        const Clock::time_point published = Clock::now();
        if (c.epoch >= spec.warmup_epochs) {
            st.epoch_ms.push_back(ms_between(st.prev_exit, published));
            if (log != nullptr) {
                st.pending.push_back(log->add("publish", enter, published, -1,
                                              static_cast<std::int64_t>(c.epoch)));
                const std::int64_t id = log->add("epoch", st.prev_exit, published, -1,
                                                 static_cast<std::int64_t>(c.epoch));
                for (const std::int64_t child : st.pending) log->set_parent(child, id);
            }
        }
        st.pending.clear();
        // Output checks, outside the timed interval.
        st.tally.op(c.record.provisioned && !c.record.degraded_mode,
                    [&] { return "epoch " + std::to_string(c.epoch) + " unprovisioned/degraded"; });
        st.tally.op(c.ledger.conserves() && c.ledger.poc_net().micros() == 0,
                    [&] { return "epoch " + std::to_string(c.epoch) + " ledger check failed"; });
        if (c.epoch + 1 == spec.warmup_epochs) end_setup(published);
        if (c.completed_epochs == st.total_epochs) load.stop();
        st.prev_exit = Clock::now();
    };
    if (log != nullptr) {
        ropt.stage_hook = [&](std::size_t e, sim::Stage s, sim::HookPoint p) {
            on_stage(st, e, s, p);
        };
    }

    sim::EpochRuntime runtime(pool, inst.tm, ropt);
    if (spec.warmup_epochs == 0) end_setup(Clock::now());
    st.prev_exit = Clock::now();
    const sim::RuntimeOutcome outcome =
        st.total_epochs > 0 ? runtime.run() : sim::RuntimeOutcome{};
    load.stop();
    const auto loop_counters = counter_delta(st.loop_base, kLoopCounters);

    data.setup_s.push_back(ms_between(st.round_start, st.setup_end) / 1000.0);
    data.topo_ms.push_back(setup.topo_ms);
    data.tally.merge(st.tally);
    if (timed_epochs == 0) {
        std::filesystem::remove_all(dir);
        return;
    }
    data.loop_counters.push_back(loop_counters);
    auto& epochs = log != nullptr ? data.traced_epoch_ms : data.epoch_ms;
    epochs.insert(epochs.end(), st.epoch_ms.begin(), st.epoch_ms.end());
    data.queries.merge(load.take());
    data.tally.op(outcome.epochs.size() == st.total_epochs, [] { return "round ended early"; });
    const std::string final_state = outcome_bytes(outcome);
    util::Fnv64 digest;
    digest.add_bytes(final_state);
    data.digests.push_back(hex64(digest.value()));

    // Restarts: a fresh runtime on the finished journal and snapshots
    // recovers and republishes; its outcome must be bit-identical.
    double restart_total_ms = 0.0;
    for (std::size_t r = 0; r < kMaxRestarts; ++r) {
        if (r >= kMinRestarts && restart_total_ms >= kMinRestartSeconds * 1000.0) break;
        serve::ServeEngine fresh(pool, inst.tm, base_opt, serve_options());
        sim::RuntimeOptions ro = base_opt;
        ro.on_epoch_commit = [&fresh](const sim::EpochCommit& c) { fresh.publish(c); };
        const obs::Snapshot before = obs::Snapshot::capture();
        const Clock::time_point t0 = Clock::now();
        const sim::RuntimeOutcome again = sim::EpochRuntime(pool, inst.tm, ro).run();
        const Clock::time_point t1 = Clock::now();
        data.restart_ms.push_back(ms_between(t0, t1));
        if (log != nullptr) log->add("restart", t0, t1);
        restart_total_ms += data.restart_ms.back();
        const std::string replayed = "sim.runtime.replayed_records";
        data.replayed_records.push_back(
            static_cast<double>(counter_delta(before, {replayed})[replayed]));
        const auto view = fresh.current();
        data.tally.op(outcome_bytes(again) == final_state && view &&
                          view->completed_epochs == st.total_epochs,
                      [&] { return "restart " + std::to_string(r) + " not bit-identical"; });
    }

    if (log != nullptr && outcome.auctions.back()) {
        // Auction split: re-clear the last epoch cold through the timing
        // oracle, set up as the runtime sets up its oracle and auction
        // (sim/runtime.cpp clear_epoch) for a cold epoch: the same
        // request options, a path cache and a fresh delta memo when
        // those knobs are on. On clear-paper every epoch is such
        // a cold clear; on steady-serve only the set-up epoch is. The
        // result must equal the runtime's, which on steady-serve also
        // proves its warm clear equal to a cold one.
        const sim::EpochRecord& last = outcome.epochs.back();
        net::TrafficMatrix scaled = inst.tm;
        for (net::Demand& d : scaled) d.gbps *= last.demand_factor;
        net::PathCache path_cache(1, base_opt.path_cache_repair_budget);
        market::DeltaReclearState delta;
        market::OracleOptions oopt = base_opt.request.oracle;
        if (base_opt.use_path_cache) oopt.path_cache = &path_cache;
        market::AuctionOptions aopt = base_opt.request.auction;
        if (base_opt.use_delta_reclear && aopt.delta == nullptr) aopt.delta = &delta;
        const market::AcceptabilityOracle base(pool.graph(), scaled, spec.constraint, oopt);
        const auto e = static_cast<std::int64_t>(last.epoch);
        TimingOracle timing(base, *log, e);
        const std::vector<std::string> names = {"net.sssp.runs", "market.auction.oracle_queries",
                                                "market.auction.pivots"};
        const obs::Snapshot before = obs::Snapshot::capture();
        const Clock::time_point t0 = Clock::now();
        const auto rerun = market::run_auction(pool, timing, aopt);
        const Clock::time_point t1 = Clock::now();
        data.rerun_counters = counter_delta(before, names);
        const std::int64_t auction = log->add("auction", t0, t1, -1, e);
        double oracle_ms = 0.0;
        for (const std::int64_t q : timing.take_spans()) log->set_parent(q, auction);
        for (const Span& s : log->spans()) {
            if (s.parent == auction) oracle_ms += s.ms();
        }
        data.oracle_self_ms.push_back(oracle_ms);
        data.auction_self_ms.push_back(log->self_ms("auction").back());
        data.tally.op(rerun && market_bytes(*rerun) == market_bytes(*outcome.auctions.back()),
                      [] { return "traced auction re-run differs from the runtime's"; });
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Reporting

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double median_or_zero(const std::vector<double>& v) { return v.empty() ? 0.0 : median(v); }

/// Median over epoch spans of the summed duration of their stages'
/// children named `name` (the journal appends of one epoch).
double per_epoch_sum_median(const SpanLog& log, const std::string& name) {
    const std::vector<Span> all = log.spans();
    std::map<std::int64_t, double> by_epoch;
    for (const Span& s : all) {
        if (s.name != name || s.parent < 0) continue;
        const std::int64_t epoch = all[static_cast<std::size_t>(s.parent)].parent;
        if (epoch >= 0) by_epoch[epoch] += s.ms();
    }
    std::vector<double> v;
    for (const auto& [e, ms] : by_epoch) v.push_back(ms);
    return median_or_zero(v);
}

std::string json_number(double v) {
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

void print_json(bool correct, const Tally& tally, const std::vector<MetricDef>& defs,
                const std::map<std::string, double>& values) {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": "
       << tally.attempted << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < defs.size(); ++i) {
        os << (i == 0 ? "" : ", ") << "\"" << defs[i].name << "\": {\"value\": "
           << json_number(values.at(defs[i].name)) << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
    os << "}}";
    std::cout << os.str() << std::endl;
}

}  // namespace

std::vector<std::string> workload_names() {
    std::vector<std::string> out;
    for (const WorkloadSpec& w : kWorkloads) out.emplace_back(w.name);
    return out;
}

const std::vector<MetricDef>& end_to_end_metrics() { return kEndToEnd; }
const std::vector<MetricDef>& per_layer_metrics() { return kPerLayer; }

int run_workload(const RunOptions& opt) {
    const WorkloadSpec& spec = find_spec(opt.workload);
    const std::filesystem::path dir =
        std::filesystem::path(opt.work_dir) / (opt.workload + "-" + std::to_string(opt.seed));

    RunData data;
    SpanLog log(Clock::now());
    const Clock::time_point start = Clock::now();
    const auto elapsed_s = [&] { return ms_between(start, Clock::now()) / 1000.0; };
    // Traced runs alternate traced and untraced rounds so the tracing
    // overhead is measured within the run.
    for (std::size_t round = 0;; ++round) {
        const bool traced = opt.traced && round % 2 == 0;
        run_round(spec, spec.timed_epochs, opt.seed, dir, traced ? &log : nullptr, data);
        const bool both = !opt.traced || (!data.epoch_ms.empty() && !data.traced_epoch_ms.empty());
        if (elapsed_s() >= opt.seconds && both) break;
    }
    while (data.setup_s.size() < kMinSetups) run_round(spec, 0, opt.seed, dir, nullptr, data);
    const double wall_s = elapsed_s();

    // Whole-run checks: every round identical, equal to the stored
    // reference, and with the same deterministic counts.
    for (std::size_t r = 1; r < data.digests.size(); ++r) {
        data.tally.op(data.digests[r] == data.digests[0],
                      [] { return "rounds ended in different states"; });
    }
    const auto ref = reference_digest(opt.reference, opt.workload);
    data.tally.op(ref && *ref == data.digests[0], [&] {
        return ref ? "digest differs from the stored reference"
                   : "no reference digest for " + opt.workload + " in '" + opt.reference + "'";
    });
    bool counters_repeat = true;
    for (const auto& c : data.loop_counters) counters_repeat &= c == data.loop_counters[0];
    data.tally.op(counters_repeat, [] { return "deterministic counters differ across rounds"; });

    Tally tally = data.tally;
    tally.merge(data.queries.tally);
    const bool correct = tally.failed == 0;

    const QuerySamples& q = data.queries;
    std::vector<double> query_us;
    for (const auto* v : {&q.quote_us, &q.path_us, &q.sla_us}) {
        query_us.insert(query_us.end(), v->begin(), v->end());
    }
    const std::vector<double>& epochs = opt.traced ? data.traced_epoch_ms : data.epoch_ms;
    double epoch_sum_ms = 0.0;
    for (const double e : data.epoch_ms) epoch_sum_ms += e;
    const std::map<std::string, std::uint64_t>& loop = data.loop_counters.front();

    // Every metric, end to end and per layer; the JSON line carries the
    // list that matches the run's mode.
    std::map<std::string, double> v;
    v["setup_s"] = median(data.setup_s);
    v["epochs_per_s"] =
        epoch_sum_ms > 0.0 ? static_cast<double>(data.epoch_ms.size()) / (epoch_sum_ms / 1000.0)
                           : 0.0;
    v["epoch_ms.p50"] = median_or_zero(data.epoch_ms);
    v["restart_ms.p50"] = median_or_zero(data.restart_ms);
    v["query_service_us.mean"] =
        q.service_us.empty() ? 0.0 : trimmed_mean(q.service_us, kServiceTrim);
    v["query_us.p50"] = query_us.empty() ? 0.0 : percentile(query_us, 50.0);
    v["query_us.p99"] = query_us.empty() ? 0.0 : percentile(query_us, 99.0);
    v["history_ms.p50"] = median_or_zero(q.history_ms);
    v["peak_rss_mb"] = peak_rss_mb();

    for (const auto& [name, count] : loop) v[name] = static_cast<double>(count);
    v["net.sssp.runs"] = static_cast<double>(data.rerun_counters["net.sssp.runs"]);
    v["market.oracle.self_ms"] = median_or_zero(data.oracle_self_ms);
    v["market.auction.self_ms"] = median_or_zero(data.auction_self_ms);
    const std::uint64_t warm = loop.at("market.delta.warm_runs");
    const std::uint64_t runs = warm + loop.at("market.delta.cold_runs");
    v["market.delta.warm_ratio"] = ratio(warm, runs);
    const std::uint64_t oracle_hits = loop.at("market.auction.oracle_cache_hits");
    const std::uint64_t oracle_lookups = oracle_hits + loop.at("market.auction.oracle_queries");
    v["market.auction.oracle_cache_hit_ratio"] = ratio(oracle_hits, oracle_lookups);
    const std::uint64_t pc_hits = loop.at("net.path_cache.hits");
    const std::uint64_t pc_lookups = pc_hits + loop.at("net.path_cache.misses");
    v["net.path_cache.hit_ratio"] = ratio(pc_hits, pc_lookups);
    v["sim.stage.auction_ms"] = median_or_zero(log.self_ms("stage.auction"));
    v["sim.stage.provisioning_ms"] = median_or_zero(log.self_ms("stage.provisioning"));
    v["sim.stage.flow_ms"] = median_or_zero(log.self_ms("stage.flow"));
    v["sim.stage.settlement_ms"] = median_or_zero(log.self_ms("stage.settlement"));
    v["sim.epoch.self_ms"] = median_or_zero(log.self_ms("epoch"));
    v["util.journal.append_ms"] = per_epoch_sum_median(log, "journal.append");
    v["util.state_history.snapshot_ms"] = median_or_zero(log.total_ms("snapshot"));
    v["util.state_history.compaction_ms"] = median_or_zero(log.total_ms("compaction"));
    v["sim.runtime.replayed_records"] = median_or_zero(data.replayed_records);
    v["serve.publish_ms"] = median_or_zero(log.total_ms("publish"));
    v["serve.quote_us"] = median_or_zero(q.quote_us);
    v["serve.path_us"] = median_or_zero(q.path_us);
    v["serve.sla_us"] = median_or_zero(q.sla_us);
    v["bench.generator_late_ms"] =
        q.late_us.empty() ? 0.0 : percentile(q.late_us, 99.0) / 1000.0;
    v["topo.build_ms"] = median(data.topo_ms);
    v["bench.trace_overhead_frac"] =
        opt.traced && !data.epoch_ms.empty() && !data.traced_epoch_ms.empty()
            ? median(data.traced_epoch_ms) / median(data.epoch_ms) - 1.0
            : 0.0;

    // Human-readable report.
    std::cout << "workload " << spec.name << "  seed " << opt.seed << "  rounds "
              << data.digests.size() << "  wall " << wall_s << " s  traced "
              << (opt.traced ? "yes" : "no") << "\n";
    std::cout << "epochs: " << data.epoch_ms.size() << " untraced, " << data.traced_epoch_ms.size()
              << " traced (closed loop, one epoch thread)\n";
    if (const auto p = highest_reportable_percentile(epochs.size())) {
        std::cout << "epoch_ms.p" << *p << " = " << percentile(epochs, *p) << " over "
                  << epochs.size() << " epochs\n";
    } else {
        std::cout << "epoch tail: not reported (" << epochs.size()
                  << " epochs; a percentile needs >= 10 beyond it)\n";
    }
    if (spec.serving) {
        const ReaderPlan plan = host_reader_plan();
        std::cout << "queries: " << query_us.size() << " (quote/path/sla at " << kMixRate
                  << "/s over " << plan.mix_readers
                  << " reader(s), open loop, latency from due time), history "
                  << q.history_ms.size() << " at " << (plan.history ? kHistoryRate : 0.0)
                  << "/s, " << q.history_hits << " served from the history cache\n";
        std::cout << "query_service_us.mean over " << q.service_us.size()
                  << " mix queries, slowest 1% left out\n";
    } else {
        std::cout << "queries: none (no serving load on this workload; query metrics read 0)\n";
    }
    std::cout << "restart_ms.p50 over " << data.restart_ms.size() << " restarts\n";
    if (const auto p = highest_reportable_percentile(query_us.size()); p && *p > 99.0) {
        std::cout << "query_us.p" << *p << " = " << percentile(query_us, *p) << "\n";
    }
    if (!q.late_us.empty()) {
        const auto late_1ms = std::count_if(q.late_us.begin(), q.late_us.end(),
                                            [](double us) { return us > 1000.0; });
        std::cout << "generator lateness: p50 " << percentile(q.late_us, 50.0) << " us, p99 "
                  << percentile(q.late_us, 99.0) << " us, max " << percentile(q.late_us, 100.0)
                  << " us, later than 1 ms " << late_1ms << "/" << q.late_us.size() << "\n";
    }
    std::cout << "ops_failed_frac = " << tally.failed << "/" << tally.attempted << " = "
              << ratio(tally.failed, tally.attempted)
              << " (base: epochs + output checks + queries + restarts)\n";
    for (const std::string& n : tally.notes) std::cout << "  failed: " << n << "\n";
    std::cout << "final-state digest " << data.digests.front()
              << (ref ? (*ref == data.digests.front() ? " (matches reference)"
                                                       : " (DIFFERS from reference)")
                      : " (no reference stored)")
              << "\n";
    std::cout << "deterministic counters per round (" << (counters_repeat ? "repeat" : "DIFFER")
              << " across rounds):";
    for (const auto& [name, count] : loop) std::cout << " " << name << "=" << count;
    std::cout << "\n";
    std::cout << "ratios: market.delta.warm_ratio " << warm << "/" << runs
              << ", market.auction.oracle_cache_hit_ratio " << oracle_hits << "/"
              << oracle_lookups << ", net.path_cache.hit_ratio " << pc_hits << "/" << pc_lookups
              << "\n";
    if (opt.traced) {
        // The oracle and auction split comes from this re-run.
        std::cout << "auction re-run counters (a cold clear of the last epoch's inputs"
                  << (warm > 0 ? "; this workload's warm epochs make no such clear" : "")
                  << "):";
        for (const auto& [name, count] : data.rerun_counters) {
            std::cout << " " << name << "=" << count;
        }
        std::cout << "\n";
        if (!opt.trace_out.empty()) {
            std::filesystem::create_directories(
                std::filesystem::path(opt.trace_out).parent_path());
            std::ofstream(opt.trace_out) << log.json();
            std::cout << "spans written to " << opt.trace_out << "\n";
        }
    }
    // What a user of the system sees, whatever the mode; traced runs
    // add the per-layer list.
    std::vector<MetricDef> shown = kEndToEnd;
    const auto unbounded_end = kPerLayer.begin() + kUnboundedTimings;
    shown.insert(shown.end(), kPerLayer.begin(), unbounded_end);
    if (opt.traced) shown.insert(shown.end(), unbounded_end, kPerLayer.end());
    for (const MetricDef& m : shown) {
        std::cout << "  " << m.name << " = " << v.at(m.name) << " " << m.unit << "\n";
    }
    print_json(correct, tally, opt.traced ? kPerLayer : kEndToEnd, v);
    return correct ? 0 : 1;
}

}  // namespace perfbench
