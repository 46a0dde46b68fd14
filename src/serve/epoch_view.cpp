#include "serve/epoch_view.hpp"

#include "obs/trace.hpp"
#include "sim/replay.hpp"

namespace poc::serve {

const char* sla_status_name(SlaStatus status) {
    switch (status) {
        case SlaStatus::kHealthy: return "healthy";
        case SlaStatus::kDegraded: return "degraded";
        case SlaStatus::kViolated: return "violated";
        case SlaStatus::kUnprovisioned: return "unprovisioned";
    }
    return "unknown";
}

SlaStatus EpochView::sla(double delivered_target) const {
    if (!provisioned) return SlaStatus::kUnprovisioned;
    if (record.delivered_fraction < delivered_target) return SlaStatus::kViolated;
    if (record.degraded_mode || record.breaker_open || record.max_utilization > 1.0) {
        return SlaStatus::kDegraded;
    }
    return SlaStatus::kHealthy;
}

const BpQuote* EpochView::quote_for(std::string_view bp_name) const {
    for (const BpQuote& q : quotes) {
        if (q.name == bp_name) return &q;
    }
    return nullptr;
}

std::optional<util::Money> EpochView::balance(core::Party party) const {
    for (const auto& [p, amount] : balances) {
        if (p == party) return amount;
    }
    return std::nullopt;
}

std::shared_ptr<const EpochView> build_epoch_view(
    const net::Graph& graph, std::size_t epoch, std::size_t completed_epochs, bool replayed,
    const sim::EpochRecord& record, const std::optional<market::AuctionResult>& auction,
    const core::Ledger& ledger, const EpochView* previous) {
    POC_OBS_SPAN("serve.view_build");
    auto view = std::make_shared<EpochView>();
    view->epoch = epoch;
    view->completed_epochs = completed_epochs;
    view->replayed = replayed;
    view->record = record;
    view->provisioned = auction.has_value();

    if (auction) {
        view->total_outlay = auction->total_outlay;
        view->virtual_cost = auction->virtual_cost;
        view->quotes.reserve(auction->outcomes.size());
        for (const market::BpOutcome& o : auction->outcomes) {
            view->quotes.push_back(
                {o.name, o.payment, o.bid_cost, o.pob, o.selected_links.size()});
        }
        view->backbone = auction->selection.links;
    }

    // Path trees over the provisioned backbone, one per source. An
    // unprovisioned epoch still gets trees (every node isolated), so
    // path queries answer kUnreachable instead of faulting. The trees
    // depend only on the graph and the backbone's link list, so an
    // unchanged backbone copies the previous view's.
    if (previous != nullptr && previous->backbone == view->backbone) {
        view->trees = previous->trees;
    } else {
        // One workspace serves every source; the inlined length metric
        // reads the same doubles as weight_by_length, so the trees are
        // identical. The searches scan the backbone's own incidence
        // lists (a few dozen links) instead of every offered link's, in
        // the same order.
        const net::Subgraph backbone(graph, view->backbone);
        const net::ActiveAdjacency incidence(backbone);
        net::SsspWorkspace ws;
        view->trees.reserve(graph.node_count());
        for (std::size_t n = 0; n < graph.node_count(); ++n) {
            net::dijkstra_metric_into(backbone, incidence, net::NodeId(n),
                                      net::SsspMetric::kLength, ws);
            view->trees.push_back(ws.to_tree());
        }
    }

    // Balances for every party the ledger has seen, in first-seen
    // order (deterministic across runs: transfers replay identically),
    // from the ledger's running tally.
    view->balances = ledger.balances();
    view->poc_net = ledger.poc_net();
    return view;
}

std::shared_ptr<const EpochView> build_epoch_view(const net::Graph& graph,
                                                  const sim::EpochCommit& commit,
                                                  const EpochView* previous) {
    return build_epoch_view(graph, commit.epoch, commit.completed_epochs, commit.replayed,
                            commit.record, commit.auction, commit.ledger, previous);
}

std::shared_ptr<const EpochView> build_epoch_view(const net::Graph& graph,
                                                  const sim::RuntimeState& state,
                                                  const EpochView* previous) {
    POC_EXPECTS(!state.epochs.empty());
    return build_epoch_view(graph, state.epochs.back().epoch, state.epochs.size(),
                            /*replayed=*/true, state.epochs.back(), state.auctions.back(),
                            state.ledger, previous);
}

std::string encode_epoch_view(const EpochView& view) {
    util::BinaryWriter w;
    w.str("poc-epoch-view-v1");
    w.u64(view.epoch);
    w.u64(view.completed_epochs);
    sim::write_epoch_record(w, view.record);
    w.boolean(view.provisioned);
    w.i64(view.total_outlay.micros());
    w.i64(view.virtual_cost.micros());
    w.u64(view.quotes.size());
    for (const BpQuote& q : view.quotes) {
        w.str(q.name);
        w.i64(q.payment.micros());
        w.i64(q.bid_cost.micros());
        w.f64(q.pob);
        w.u64(q.links_won);
    }
    market::write_links(w, view.backbone);
    w.u64(view.trees.size());
    for (const net::ShortestPathTree& tree : view.trees) {
        w.u32(tree.source.value());
        w.u64(tree.dist.size());
        for (const double d : tree.dist) w.f64(d);
        for (const net::LinkId l : tree.parent_link) w.u32(l.value());
        for (const net::NodeId n : tree.pred_node_) w.u32(n.value());
    }
    w.u64(view.balances.size());
    for (const auto& [party, amount] : view.balances) {
        w.u8(static_cast<std::uint8_t>(party.kind));
        w.u32(party.index);
        w.i64(amount.micros());
    }
    w.i64(view.poc_net.micros());
    return w.bytes();
}

QuoteReply quote_reply(const EpochView& view, std::string_view bp_name) {
    QuoteReply reply;
    reply.epoch = view.epoch;
    reply.total_outlay = view.total_outlay;
    const BpQuote* q = view.quote_for(bp_name);
    if (q == nullptr) {
        reply.code = ServeError::kUnknownBp;
        return reply;
    }
    reply.code = ServeError::kOk;
    reply.quote = *q;
    return reply;
}

PathReply path_reply(const EpochView& view, net::NodeId src, net::NodeId dst) {
    PathReply reply;
    reply.epoch = view.epoch;
    if (!src.valid() || !dst.valid() || src.index() >= view.trees.size() ||
        dst.index() >= view.trees.size()) {
        reply.code = ServeError::kUnknownNode;
        return reply;
    }
    const net::ShortestPathTree& tree = view.trees[src.index()];
    if (!tree.reachable(dst)) {
        reply.code = ServeError::kUnreachable;
        return reply;
    }
    reply.code = ServeError::kOk;
    reply.links = tree.path_to(dst);
    reply.length_km = tree.dist[dst.index()];
    return reply;
}

SlaReply sla_reply(const EpochView& view) {
    SlaReply reply;
    reply.code = ServeError::kOk;
    reply.epoch = view.epoch;
    reply.status = view.sla(kSlaDeliveredTarget);
    reply.delivered_fraction = view.record.delivered_fraction;
    reply.degraded = view.record.degraded_mode;
    reply.breaker_open = view.record.breaker_open;
    return reply;
}

HistoryReply history_reply(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                           const sim::RuntimeOptions& runtime_opt,
                           std::uint64_t completed_epochs) {
    if (completed_epochs == 0) return refusal<HistoryReply>(ServeError::kHistoryUnavailable);
    // Strictly read-only against the live journal (Journal::scan_file):
    // materialization can run while the runtime is mid-epoch.
    const auto state = sim::materialize_state_at(pool, tm, runtime_opt, completed_epochs);
    if (!state) return refusal<HistoryReply>(ServeError::kHistoryUnavailable);
    return {ServeError::kOk, build_epoch_view(pool.graph(), *state)};
}

}  // namespace poc::serve
