// Verdict identity of the kFast acceptability oracle against a frozen
// copy of its screen-first body, in which every constraint first checks
// that each positive demand's endpoints are connected over the active
// links. Production routes kLoad through greedy first and screens only
// the demands a successful greedy run does not prove connected, and
// lets kSingleFailure's bridge screen (a stricter connectivity check on
// a subgraph) stand in for the plain one. Neither may change a verdict.
//
// A second reference, frozen from the kFast body as it stood before the
// footprint certificate and the node-cut screen, checks that neither
// changes a verdict inside a deletion pass.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "helpers/graphs.hpp"
#include "market/auction_cache.hpp"
#include "market/delta_reclear.hpp"
#include "market/vcg.hpp"
#include "net/connectivity.hpp"
#include "net/mcf.hpp"
#include "net/path_cache.hpp"
#include "obs/metrics.hpp"
#include "topo/synthetic.hpp"
#include "util/rng.hpp"

namespace poc::market {
namespace {

/// The kFast verdict as it stood with the connectivity screen first.
bool screen_first_reference(const net::Subgraph& sg, const net::TrafficMatrix& tm,
                            ConstraintKind kind, double derate) {
    if (!net::all_pairs_connected(sg, tm)) return false;
    if (kind == ConstraintKind::kLoad) return net::greedy_path_routing(sg, tm).has_value();
    net::Subgraph no_bridges = sg;
    for (const net::LinkId b : net::find_bridges(sg)) no_bridges.set_active(b, false);
    if (!net::all_pairs_connected(no_bridges, tm)) return false;
    net::GreedyRoutingOptions gopt;
    gopt.utilization_cap = derate;
    return net::greedy_path_routing(sg, tm, gopt).has_value();
}

bool fast_verdict(const net::Graph& g, const net::TrafficMatrix& tm, ConstraintKind kind,
                  double derate, const net::Subgraph& sg) {
    OracleOptions opt;
    opt.fidelity = OracleFidelity::kFast;
    opt.fast_failure_derate = derate;
    return AcceptabilityOracle(g, tm, kind, opt).accepts(sg);
}

/// Random demands over `n` nodes at `scale` gbps, with a zero demand
/// and demands too small for greedy to place mixed in.
net::TrafficMatrix random_demands(util::Rng& rng, std::size_t n, std::size_t count, double scale) {
    net::TrafficMatrix tm;
    for (std::size_t i = 0; i < count; ++i) {
        const auto s = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto t = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (t == s) t = (t + 1) % n;
        double gbps = rng.uniform(0.1, 1.0) * scale;
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.1) gbps = 0.0;
        else if (roll < 0.2) gbps = 1e-13;
        else if (roll < 0.3) gbps = 1e-10;
        tm.push_back({net::NodeId{s}, net::NodeId{t}, gbps});
    }
    return tm;
}

struct Tally {
    int accepted = 0;
    int rejected = 0;
};

void expect_identical_verdicts(util::Rng& rng, const net::Graph& g, double demand_scale,
                               Tally& tally) {
    for (const double drop : {0.05, 0.2, 0.4}) {
        for (int probe = 0; probe < 6; ++probe) {
            net::Subgraph sg(g);
            for (const net::LinkId l : g.all_links()) {
                if (rng.bernoulli(drop)) sg.set_active(l, false);
            }
            const std::size_t demands =
                1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{6}));
            const net::TrafficMatrix tm =
                random_demands(rng, g.node_count(), demands, demand_scale);
            for (const ConstraintKind kind :
                 {ConstraintKind::kLoad, ConstraintKind::kSingleFailure}) {
                for (const double derate : {0.65, 1.0}) {
                    const bool expected = screen_first_reference(sg, tm, kind, derate);
                    ASSERT_EQ(fast_verdict(g, tm, kind, derate, sg), expected)
                        << constraint_name(kind) << " derate " << derate << " drop " << drop;
                    ++(expected ? tally.accepted : tally.rejected);
                }
            }
        }
    }
}

TEST(OracleIdentity, FastVerdictsMatchScreenFirstReference) {
    util::Rng rng(131);
    Tally tally;
    for (std::size_t round = 0; round < 8; ++round) {
        // Sparse random multigraphs: masks often cut demands apart.
        const net::Graph g = test::random_connected(rng, 8 + 2 * round, 6 + 3 * round);
        expect_identical_verdicts(rng, g, 12.0, tally);
    }
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        // Continental meshes with parallel trunks between regions.
        topo::SyntheticTopologyOptions opt;
        opt.nodes = 40;
        opt.regions = 4;
        opt.avg_degree = 3.0;
        opt.seed = seed;
        const topo::SyntheticTopology topo = topo::build_synthetic_topology(opt);
        expect_identical_verdicts(rng, topo.graph, 1500.0, tally);
    }
    // Both outcomes are exercised, under both constraints.
    EXPECT_GT(tally.accepted, 50);
    EXPECT_GT(tally.rejected, 50);
}

/// Nodes 0-1 joined by a link; nodes 2-3 joined by another; no path
/// between the two pairs.
struct TwoIslands {
    net::Graph g;
    TwoIslands() {
        g.add_nodes(4);
        g.add_link(net::NodeId{0u}, net::NodeId{1u}, 10.0, 1.0);
        g.add_link(net::NodeId{2u}, net::NodeId{3u}, 10.0, 1.0);
    }
};

TEST(OracleIdentity, TinyDemandAcrossACutIsStillRejected) {
    // Greedy skips demands at or below its placement tolerance, so its
    // success proves nothing about their endpoints; the screen must.
    const TwoIslands is;
    const net::Subgraph sg(is.g);
    for (const double tiny : {1e-13, 1e-12, 1e-10, 1e-9}) {
        const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{1u}, 5.0},
                                       {net::NodeId{1u}, net::NodeId{2u}, tiny}};
        EXPECT_TRUE(net::greedy_path_routing(sg, tm).has_value()) << tiny;
        for (const ConstraintKind kind : {ConstraintKind::kLoad, ConstraintKind::kSingleFailure}) {
            EXPECT_FALSE(screen_first_reference(sg, tm, kind, 1.0)) << tiny;
            EXPECT_FALSE(fast_verdict(is.g, tm, kind, 1.0, sg)) << tiny;
        }
    }
}

TEST(OracleIdentity, ZeroDemandAcrossACutIsAccepted) {
    const TwoIslands is;
    const net::Subgraph sg(is.g);
    const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{1u}, 5.0},
                                   {net::NodeId{1u}, net::NodeId{2u}, 0.0}};
    EXPECT_TRUE(screen_first_reference(sg, tm, ConstraintKind::kLoad, 1.0));
    EXPECT_TRUE(fast_verdict(is.g, tm, ConstraintKind::kLoad, 1.0, sg));
}

TEST(OracleIdentity, DerateCapsMatchReference) {
    // Two parallel 10 Gbps links carry 12 Gbps at full capacity, and at
    // a 0.65 derate (13 Gbps) too, but not 14 Gbps at 0.65 (13 usable).
    net::Graph g;
    g.add_nodes(2);
    g.add_link(net::NodeId{0u}, net::NodeId{1u}, 10.0, 1.0);
    g.add_link(net::NodeId{0u}, net::NodeId{1u}, 10.0, 1.0);
    const net::Subgraph sg(g);
    for (const double gbps : {6.0, 12.0, 14.0, 19.0, 21.0}) {
        const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{1u}, gbps}};
        for (const double derate : {0.3, 0.65, 0.7, 1.0}) {
            EXPECT_EQ(fast_verdict(g, tm, ConstraintKind::kSingleFailure, derate, sg),
                      screen_first_reference(sg, tm, ConstraintKind::kSingleFailure, derate))
                << gbps << " gbps at derate " << derate;
        }
    }
    const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{1u}, 14.0}};
    EXPECT_FALSE(fast_verdict(g, tm, ConstraintKind::kSingleFailure, 0.65, sg));
    EXPECT_TRUE(fast_verdict(g, tm, ConstraintKind::kSingleFailure, 0.7, sg));
}

/// The kFast verdict with every greedy run evaluated in full: no
/// footprint certificate and no node-cut screen.
bool full_evaluation_reference(const net::Subgraph& sg, const net::TrafficMatrix& tm,
                               ConstraintKind kind, double derate) {
    switch (kind) {
        case ConstraintKind::kLoad: {
            if (!net::greedy_path_routing(sg, tm).has_value()) return false;
            net::TrafficMatrix unproven;
            for (const net::Demand& d : tm) {
                if (!(d.gbps <= 0.0) && !net::greedy_success_connects(d)) unproven.push_back(d);
            }
            return unproven.empty() || net::all_pairs_connected(sg, unproven);
        }
        case ConstraintKind::kSingleFailure: {
            net::Subgraph no_bridges = sg;
            for (const net::LinkId b : net::find_bridges(sg)) no_bridges.set_active(b, false);
            if (!net::all_pairs_connected(no_bridges, tm)) return false;
            net::GreedyRoutingOptions gopt;
            gopt.utilization_cap = derate;
            return net::greedy_path_routing(sg, tm, gopt).has_value();
        }
        case ConstraintKind::kPerPairFailure: {
            if (!net::all_pairs_connected(sg, tm)) return false;
            const auto primaries = net::primary_paths(sg, tm, nullptr);
            if (!net::greedy_path_routing(sg, tm).has_value()) return false;
            net::GreedyRoutingOptions gopt;
            gopt.exclusions = &primaries;
            return net::greedy_path_routing(sg, tm, gopt).has_value();
        }
    }
    return false;
}

/// A multigraph built for ties: a spanning chain plus random node
/// pairs, every pair joined by 1-4 parallel links, and every link of
/// the same capacity and the same `length` (1 or 0).
net::Graph tie_heavy(util::Rng& rng, std::size_t n, std::size_t pairs, double length) {
    net::Graph g;
    g.add_nodes(n);
    const auto join = [&](std::size_t a, std::size_t b) {
        const auto parallel = 1 + rng.uniform_int(std::uint64_t{4});
        for (std::uint64_t k = 0; k < parallel; ++k) {
            g.add_link(net::NodeId{a}, net::NodeId{b}, 10.0, length);
        }
    };
    for (std::size_t i = 0; i + 1 < n; ++i) join(i, i + 1);
    for (std::size_t e = 0; e < pairs; ++e) {
        const auto a = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        auto b = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{n}));
        if (a == b) b = (b + 1) % n;
        join(a, b);
    }
    return g;
}

struct PassTally {
    int accepted = 0;
    int rejected = 0;
    int memo_hit_accepts = 0;
};

/// One deletion pass in random order and random batch sizes, committing
/// each accepted batch and restoring each rejected one, with every
/// query compared against the full evaluation. When `memo` is set,
/// some queries are first answered without the witness (as another
/// pivot would), so the witnessed query is a memo hit.
void random_pass(util::Rng& rng, const net::Graph& g, const net::TrafficMatrix& tm,
                 ConstraintKind kind, double derate, const Oracle& oracle,
                 const Oracle* memo, PassTally& tally) {
    net::Subgraph sg(g);
    OracleWitness witness;
    const bool full = oracle.accepts(sg, &witness);
    ASSERT_EQ(full, full_evaluation_reference(sg, tm, kind, derate));
    if (!full) return;
    std::vector<net::LinkId> order = g.all_links();
    rng.shuffle(order);
    std::size_t i = 0;
    while (i < order.size()) {
        const auto size = 1 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{6}));
        std::vector<net::LinkId> batch;
        for (; i < order.size() && batch.size() < size; ++i) batch.push_back(order[i]);
        for (const net::LinkId l : batch) sg.set_active(l, false);
        const bool memo_hit = memo != nullptr && rng.bernoulli(0.25);
        if (memo_hit) (void)memo->accepts(sg);
        const bool verdict = oracle.accepts(sg, &witness);
        ASSERT_EQ(verdict, full_evaluation_reference(sg, tm, kind, derate))
            << constraint_name(kind) << " derate " << derate << " after " << i << " links";
        if (verdict) {
            ++tally.accepted;
            if (memo_hit) {
                EXPECT_FALSE(witness.armed());
                ++tally.memo_hit_accepts;
            }
        } else {
            ++tally.rejected;
            for (const net::LinkId l : batch) sg.set_active(l, true);
        }
    }
}

/// Two nodes joined by `k` parallel links of capacity `c`, and one
/// demand across them: the node-cut screen's boundary. Scans demands
/// around the exact capacity, the fit tolerance and greedy's largest
/// fitting demand, and counts the demands greedy fits although the
/// screen's plain sums say the node is over capacity: only the margin
/// keeps those from being rejected.
void node_cut_boundary(std::size_t k, double c, ConstraintKind kind, double derate,
                       int& within_margin) {
    net::Graph g;
    g.add_nodes(2);
    double cap = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
        g.add_link(net::NodeId{0u}, net::NodeId{1u}, c, 1.0);
        cap += c;
    }
    const double ucap = kind == ConstraintKind::kLoad ? 1.0 : derate;
    const double avail = ucap * cap;
    OracleOptions opt;
    opt.fidelity = OracleFidelity::kFast;
    opt.fast_failure_derate = derate;
    const net::Subgraph sg(g);
    const auto check = [&](double gbps) {
        const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{1u}, gbps}};
        const bool expected = full_evaluation_reference(sg, tm, kind, derate);
        ASSERT_EQ(AcceptabilityOracle(g, tm, kind, opt).accepts(sg), expected)
            << k << " x " << c << " gbps, " << constraint_name(kind) << " at " << ucap
            << ", demand " << gbps;
        if (expected && gbps - 1e-9 * std::max(1.0, gbps) > avail) ++within_margin;
    };
    check(avail);                  // exactly the cut
    check(avail * (1.0 + 5e-10));  // within greedy's fit tolerance
    check(avail * (1.0 + 2e-9));   // past it
    double gbps = avail / (1.0 - 1e-9);
    for (int step = 0; step < 64; ++step) gbps = std::nextafter(gbps, 0.0);
    for (int step = 0; step < 128; ++step) {
        check(gbps);
        gbps = std::nextafter(gbps, 2.0 * gbps);
    }
}

TEST(OracleIdentity, CertifiedVerdictsMatchFullEvaluation) {
    util::Rng rng(173);
    PassTally tally;
    struct Config {
        ConstraintKind kind;
        double derate;
    };
    const Config configs[] = {{ConstraintKind::kLoad, 0.65},
                              {ConstraintKind::kLoad, 1.0},
                              {ConstraintKind::kSingleFailure, 0.65},
                              {ConstraintKind::kSingleFailure, 1.0},
                              {ConstraintKind::kPerPairFailure, 1.0}};
    for (int round = 0; round < 24; ++round) {
        const auto n = 5 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{6}));
        const net::Graph g = tie_heavy(rng, n, n + 2, round % 4 == 3 ? 0.0 : 1.0);
        net::TrafficMatrix tm =
            random_demands(rng, n, 2 + static_cast<std::size_t>(rng.uniform_int(std::uint64_t{5})),
                           round % 2 == 0 ? 12.0 : 25.0);
        for (const Config& cfg : configs) {
            OracleOptions opt;
            opt.fidelity = OracleFidelity::kFast;
            opt.fast_failure_derate = cfg.derate;
            net::PathCache paths;
            if (round % 2 == 1) opt.path_cache = &paths;
            const AcceptabilityOracle oracle(g, tm, cfg.kind, opt);
            random_pass(rng, g, tm, cfg.kind, cfg.derate, oracle, nullptr, tally);
            // The same pass through the memo, with memo hits mid-pass.
            AuctionCache cache;
            const CachingOracle cached(oracle, cache);
            random_pass(rng, g, tm, cfg.kind, cfg.derate, cached, &cached, tally);
        }
    }
    EXPECT_GT(tally.accepted, 300);
    EXPECT_GT(tally.rejected, 300);
    EXPECT_GT(tally.memo_hit_accepts, 20);

    // Demands at a node cut, and demands greedy skips (1e-12 gbps or
    // less) at a node with no links left.
    int within_margin = 0;
    for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
        // 0.9, 1.8 and 0.1 * 23 are capacities where the margin matters.
        for (const double c : {10.0, 0.1, 1.0 / 3.0, 0.9, 1.8, 0.1 * 23}) {
            node_cut_boundary(k, c, ConstraintKind::kLoad, 1.0, within_margin);
            for (const double derate : {0.65, 0.7}) {
                node_cut_boundary(k, c, ConstraintKind::kSingleFailure, derate, within_margin);
            }
        }
    }
    EXPECT_GT(within_margin, 0);
    const TwoIslands is;
    for (const double tiny : {1e-12, 1e-13}) {
        net::Subgraph sg(is.g);
        sg.set_active(net::LinkId{1u}, false);  // node 3 keeps no link
        const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{1u}, 5.0},
                                       {net::NodeId{2u}, net::NodeId{3u}, tiny}};
        for (const ConstraintKind kind : {ConstraintKind::kLoad, ConstraintKind::kSingleFailure,
                                          ConstraintKind::kPerPairFailure}) {
            EXPECT_EQ(fast_verdict(is.g, tm, kind, 1.0, sg),
                      full_evaluation_reference(sg, tm, kind, 1.0))
                << constraint_name(kind) << " " << tiny;
        }
    }
}

TEST(OracleIdentity, ChangedPrimariesRerouteTheExcludedRunInFull) {
    // A witness replays kPerPairFailure's excluded run only while the
    // primaries equal the armed run's. Demand 0 -> 3: link 0 is the
    // direct hop (length 3, greedy weight 4), links 1-3 the short chain
    // 0-1-2-3 (length 1.5, greedy weight 4.5), links 4-5 an optional
    // long detour through node 4. Over every link the primary is the
    // chain, and both greedy runs route over link 0, so each run's
    // footprint is link 0 alone. Cutting link 1 keeps that footprint but
    // makes link 0 the primary: replaying the armed excluded run would
    // accept; routing it in full finds only the detour, or nothing.
    for (const bool detour : {false, true}) {
        net::Graph g;
        g.add_nodes(5);
        g.add_link(net::NodeId{0u}, net::NodeId{3u}, 10.0, 3.0);
        g.add_link(net::NodeId{0u}, net::NodeId{1u}, 10.0, 0.5);
        g.add_link(net::NodeId{1u}, net::NodeId{2u}, 10.0, 0.5);
        g.add_link(net::NodeId{2u}, net::NodeId{3u}, 10.0, 0.5);
        g.add_link(net::NodeId{0u}, net::NodeId{4u}, 10.0, 5.0);
        g.add_link(net::NodeId{4u}, net::NodeId{3u}, 10.0, 5.0);
        const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{3u}, 5.0}};
        OracleOptions opt;
        opt.fidelity = OracleFidelity::kFast;
        const AcceptabilityOracle oracle(g, tm, ConstraintKind::kPerPairFailure, opt);

        net::Subgraph sg(g);
        if (!detour) {
            sg.set_active(net::LinkId{4u}, false);
            sg.set_active(net::LinkId{5u}, false);
        }
        OracleWitness witness;
        ASSERT_TRUE(oracle.accepts(sg, &witness));
        ASSERT_TRUE(witness.armed());
        sg.set_active(net::LinkId{1u}, false);
        const bool want =
            full_evaluation_reference(sg, tm, ConstraintKind::kPerPairFailure, 1.0);
        EXPECT_EQ(want, detour);
        EXPECT_EQ(oracle.accepts(sg, &witness), want) << "detour " << detour;
        if (!want) continue;
        // The accept re-armed the witness with the detour run: cutting
        // the detour now changes no primary, so the excluded run resumes
        // and fails at the first demand.
        sg.set_active(net::LinkId{5u}, false);
        EXPECT_FALSE(oracle.accepts(sg, &witness));
        EXPECT_FALSE(full_evaluation_reference(sg, tm, ConstraintKind::kPerPairFailure, 1.0));
    }
}

#if POC_OBS_ENABLED
std::uint64_t counter(const char* name) {
    for (const auto& c : obs::registry().counter_samples()) {
        if (c.name == name) return c.value;
    }
    return 0;
}

TEST(OracleVerdictCounters, SumToRealEvaluations) {
    // A small memoized auction per constraint: the six verdict
    // counters partition the evaluations that reached the oracle, and
    // the memo's hits reach none of them.
    util::Rng rng(151);
    const net::Graph g = test::random_connected(rng, 10, 24);
    std::vector<BpBid> bids;
    for (std::size_t b = 0; b < 4; ++b) bids.emplace_back(BpId{b}, "BP" + std::to_string(b));
    for (const net::LinkId l : g.all_links()) {
        bids[l.index() % 4].offer(l, util::Money::from_dollars(rng.uniform(50.0, 500.0)));
    }
    const OfferPool pool(bids, {}, g);
    const net::TrafficMatrix tm = {{net::NodeId{0u}, net::NodeId{9u}, 3.0},
                                   {net::NodeId{2u}, net::NodeId{7u}, 2.0},
                                   {net::NodeId{4u}, net::NodeId{5u}, 1.0}};
    const char* const kVerdicts[] = {
        "market.oracle.greedy_accepts",       "market.oracle.greedy_rejects",
        "market.oracle.connectivity_rejects", "market.oracle.bridge_rejects",
        "market.oracle.certified_accepts",    "market.oracle.nodecut_rejects"};
    for (const ConstraintKind kind : {ConstraintKind::kLoad, ConstraintKind::kSingleFailure,
                                      ConstraintKind::kPerPairFailure}) {
        OracleOptions oopt;
        oopt.fidelity = OracleFidelity::kFast;
        const AcceptabilityOracle oracle(g, tm, kind, oopt);
        DeltaReclearState delta;
        AuctionOptions aopt;
        aopt.delta = &delta;
        obs::registry().reset();
        const auto result = run_auction(pool, oracle, aopt);
        ASSERT_TRUE(result.has_value()) << constraint_name(kind);
        std::uint64_t verdicts = 0;
        for (const char* name : kVerdicts) verdicts += counter(name);
        EXPECT_EQ(verdicts, result->oracle_queries) << constraint_name(kind);
        EXPECT_EQ(verdicts, counter("market.auction.oracle_queries")) << constraint_name(kind);
        EXPECT_GT(counter("market.oracle.greedy_accepts"), 0u) << constraint_name(kind);
        EXPECT_GT(result->oracle_cache_hits, 0u) << constraint_name(kind);
        if (kind == ConstraintKind::kLoad) {
            EXPECT_GT(counter("market.oracle.certified_accepts"), 0u);
            EXPECT_GT(counter("market.oracle.nodecut_rejects"), 0u);
        }
    }
}
#endif  // POC_OBS_ENABLED

}  // namespace
}  // namespace poc::market
