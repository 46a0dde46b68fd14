// Always-on market daemon: serve quotes, paths, and SLA status while
// the epoch runtime clears the market underneath (DESIGN.md §8).
//
// A ServeEngine attaches to a journaled 4-epoch run. Each commit is
// frozen into an immutable EpochView and published RCU-style; the
// example queries the daemon from inside the rollover hook (any thread
// would do — queries are wait-free with respect to commits), trips
// admission control on an over-quota account, reconciles the service-
// fee ledger, and asks a point-in-time question about epoch 2; it exits
// nonzero when the ledger does not balance or that question is
// refused. CI diffs its output against bench/golden/market_daemon_demo.txt.
// Build & run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/market_daemon
//
// Replicated read tier (DESIGN.md §8.6) — the multi-process smoke:
//
//   ./build/examples/market_daemon --writer   DIR &   # leader process
//   ./build/examples/market_daemon --follower DIR     # replica process
//
// The writer runs a paced, journaled, snapshotting + compacting run in
// DIR; the follower is a separate process that bootstraps from the
// newest snapshot, tails the live journal read-only (riding through
// torn tails and compaction swaps), and serves a bounded-staleness
// quote from its replica state once caught up.
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

#include "serve/engine.hpp"
#include "serve/follower.hpp"
#include "sim/runtime.hpp"

using namespace poc;
using util::operator""_usd;

namespace {

/// The toy market: 4 POC routers, 3 BPs. Writer and follower processes
/// must build the *same* instance — it is part of the run's
/// configuration fingerprint.
struct Market {
    net::Graph graph;
    net::NodeId nyc, chi, dal, sjc;
    std::vector<market::BpBid> bids;

    Market() {
        nyc = graph.add_node("NewYork");
        chi = graph.add_node("Chicago");
        dal = graph.add_node("Dallas");
        sjc = graph.add_node("SanJose");
        bids.emplace_back(market::BpId{std::size_t{0}}, "EastFiber");
        bids.back().offer(graph.add_link(nyc, chi, 200.0, 1150.0), 5200_usd);
        bids.back().offer(graph.add_link(chi, dal, 200.0, 1290.0), 5600_usd);
        bids.emplace_back(market::BpId{std::size_t{1}}, "WestWave");
        bids.back().offer(graph.add_link(dal, sjc, 200.0, 2300.0), 8100_usd);
        bids.back().offer(graph.add_link(chi, sjc, 100.0, 2990.0), 9400_usd);
        bids.emplace_back(market::BpId{std::size_t{2}}, "MetroMesh");
        bids.back().offer(graph.add_link(nyc, chi, 100.0, 1190.0), 4900_usd);
    }

    market::OfferPool pool() const { return market::OfferPool(bids, {}, graph); }
    net::TrafficMatrix tm() const {
        return {{nyc, sjc, 60.0}, {nyc, dal, 40.0}, {chi, sjc, 30.0}, {dal, chi, 20.0}};
    }
};

/// The replicated-tier run configuration: identical in the writer and
/// follower processes (journal path, epochs, seed — the fingerprint),
/// with snapshots + compaction on so the follower exercises snapshot
/// bootstrap and the compaction-swap re-ground against a live leader.
sim::RuntimeOptions replicated_options(const std::filesystem::path& dir) {
    sim::RuntimeOptions ropt;
    ropt.epochs = 6;
    ropt.seed = 42;
    ropt.journal_path = (dir / "market.wal").string();
    ropt.snapshot_interval = 2;
    return ropt;
}

int run_writer(const std::filesystem::path& dir) {
    std::filesystem::create_directories(dir);
    const Market mkt;
    const market::OfferPool pool = mkt.pool();
    const net::TrafficMatrix tm = mkt.tm();

    sim::RuntimeOptions ropt = replicated_options(dir);
    // Pace the run so a follower started alongside genuinely tails a
    // *live* journal instead of replaying a finished one.
    ropt.on_epoch_commit = [](const sim::EpochCommit& commit) {
        std::cout << "writer: epoch " << commit.epoch << " committed ("
                  << commit.completed_epochs << "/6)" << std::endl;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    };
    sim::EpochRuntime(pool, tm, ropt).run();
    std::cout << "writer: done" << std::endl;
    return 0;
}

int run_follower(const std::filesystem::path& dir) {
    const Market mkt;
    const market::OfferPool pool = mkt.pool();
    const net::TrafficMatrix tm = mkt.tm();

    serve::FollowerOptions fopt;
    fopt.runtime = replicated_options(dir);
    // The writer may not have created the journal yet; give the stall
    // window room to wait it out (progress resets the window).
    fopt.tail_backoff.max_attempts = 64;
    serve::Follower follower(pool, tm, fopt);
    follower.tail_until(fopt.runtime.epochs);

    const serve::FollowerStats& stats = follower.stats();
    const auto view = follower.current();
    if (!view || follower.applied_epochs() != fopt.runtime.epochs) {
        std::cerr << "follower: failed to converge (applied " << follower.applied_epochs()
                  << "/" << fopt.runtime.epochs << ")\n";
        return 1;
    }
    std::cout << "follower: caught up at " << view->completed_epochs << " epochs (lag "
              << follower.lag_epochs() << ", " << stats.records_applied << " records, "
              << stats.rebootstraps << " snapshot re-ground(s), " << stats.torn_tail_polls
              << " torn-tail poll(s))" << std::endl;

    // A bounded-staleness replica read: demand freshness within one
    // epoch of what the journal can prove.
    const auto quote = follower.quote("EastFiber", /*max_lag_epochs=*/1);
    if (quote.code != serve::ServeError::kOk) {
        std::cerr << "follower: quote refused: " << serve::serve_error_name(quote.code)
                  << "\n";
        return 1;
    }
    std::cout << "follower: EastFiber payment " << quote.quote.payment
              << " served from replica state" << std::endl;
    return 0;
}

int run_demo() {
    const Market mkt;
    const market::OfferPool pool = mkt.pool();
    const net::TrafficMatrix tm = mkt.tm();

    // --- 2. The daemon, attached to a journaled runtime. -------------
    const auto dir = std::filesystem::temp_directory_path() / "poc_market_daemon";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    sim::RuntimeOptions ropt;
    ropt.epochs = 4;
    ropt.seed = 42;
    ropt.journal_path = (dir / "market.wal").string();
    ropt.snapshot_interval = 2;
    ropt.compact_after_snapshot = false;  // keep every epoch provable

    serve::ServeOptions sopt;
    sopt.meter.quota_units = 40.0;  // decayed usage ceiling per account
    serve::ServeEngine daemon(pool, tm, ropt, sopt);
    daemon.attach(ropt);

    // Chain our own observer after the daemon's publish hook: the
    // queries below run *during* the simulation, against the epoch
    // that just rolled over.
    const auto publish = ropt.on_epoch_commit;
    ropt.on_epoch_commit = [&](const sim::EpochCommit& commit) {
        publish(commit);
        const auto quote = daemon.quote("noc", "EastFiber");
        const auto path = daemon.path("noc", mkt.nyc, mkt.sjc);
        const auto sla = daemon.sla("noc");
        std::cout << "epoch " << commit.epoch << ": EastFiber payment " << quote.quote.payment
                  << ", NYC->SJC " << path.links.size() << " hops / " << path.length_km
                  << " km, SLA " << serve::sla_status_name(sla.status) << " (delivered "
                  << sla.delivered_fraction << ")\n";
    };

    std::cout << "running 4 market epochs with the daemon attached...\n";
    sim::EpochRuntime(pool, tm, ropt).run();

    // --- 3. Admission control: an account that won't stop asking. ----
    std::size_t served = 0;
    serve::ServeError code = serve::ServeError::kOk;
    while (code == serve::ServeError::kOk) {
        code = daemon.quote("freeloader", "WestWave").code;
        if (code == serve::ServeError::kOk) ++served;
    }
    std::cout << "\nfreeloader: " << served << " quotes served, then "
              << serve::serve_error_name(code) << " (quota "
              << sopt.meter.quota_units << " units); paid accounts unaffected: "
              << serve::serve_error_name(daemon.quote("noc", "EastFiber").code) << "\n";

    // --- 4. Rollover billing: flush usage into the service-fee ledger.
    const auto rec = daemon.meter().reconcile(/*epoch=*/4);
    const auto ledger = daemon.meter().billing_ledger();
    const bool balanced = rec.balanced && ledger.conserves();
    std::cout << "reconciled " << rec.accounts_flushed << " accounts, " << rec.flushed
              << " in service fees, ledger " << (balanced ? "balanced" : "MISMATCH") << "\n";

    // --- 5. Point-in-time: the market as of 2 completed epochs. ------
    const auto hist = daemon.at_epoch("analyst", 2);
    if (hist.code == serve::ServeError::kOk) {
        std::cout << "as of epoch " << hist.view->epoch << ": POC net "
                  << hist.view->poc_net << ", delivered "
                  << hist.view->record.delivered_fraction << " (rebuilt from snapshot + "
                  << "read-only journal replay, bit-identical to a from-scratch run)\n";
    } else {
        std::cerr << "point-in-time query refused: " << serve::serve_error_name(hist.code)
                  << "\n";
    }

    std::filesystem::remove_all(dir);
    return balanced && hist.code == serve::ServeError::kOk ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc == 3 && std::strcmp(argv[1], "--writer") == 0) {
        return run_writer(argv[2]);
    }
    if (argc == 3 && std::strcmp(argv[1], "--follower") == 0) {
        return run_follower(argv[2]);
    }
    if (argc != 1) {
        std::cerr << "usage: market_daemon [--writer DIR | --follower DIR]\n";
        return 2;
    }
    return run_demo();
}
