#include "net/shortest_path.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "obs/metrics.hpp"

namespace poc::net {

LinkWeight weight_by_length(const Graph& g) {
    return [&g](LinkId id) { return g.link(id).length_km; };
}

LinkWeight weight_unit() {
    return [](LinkId) { return 1.0; };
}

std::vector<LinkId> ShortestPathTree::path_to(NodeId target) const {
    POC_EXPECTS(target.index() < dist.size());
    POC_EXPECTS(reachable(target));
    std::vector<LinkId> links;
    // Walk parent pointers; needs the graph only implicitly because the
    // parent link's endpoints determine the predecessor. We store just
    // link ids here, so the caller walks with path_nodes() if node order
    // matters. To reconstruct we track the current node via parents.
    // parent_link[v] connects v to its predecessor.
    NodeId v = target;
    while (v != source) {
        const LinkId pl = parent_link[v.index()];
        POC_ASSERT(pl.valid());
        links.push_back(pl);
        // Move to the other endpoint. We cannot consult the Graph here,
        // so ShortestPathTree stores predecessor nodes too; see below.
        v = pred_node_[v.index()];
    }
    std::reverse(links.begin(), links.end());
    return links;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// weight_by_length with the std::function indirection stripped: the
/// batched fast path calls the weight once per scanned edge, and a
/// direct load from the flat SoA length array (8-byte lane instead of
/// a 40-byte Link stride) is measurably cheaper than a type-erased
/// call. Same doubles, so bit-identical.
struct LengthWeight {
    LinkSoa soa;
    double operator()(LinkId id) const { return soa.length_km[id.index()]; }
};

struct UnitWeight {
    double operator()(LinkId) const { return 1.0; }
};

struct ArrayWeight {
    const LinkWeightArray& w;
    double operator()(LinkId id) const { return w[id.index()]; }
};

}  // namespace

void SsspWorkspace::prepare(std::size_t node_count) {
    if (dist_.size() != node_count) {
        dist_.assign(node_count, 0.0);
        parent_.assign(node_count, LinkId{});
        pred_.assign(node_count, NodeId{});
        stamp_.assign(node_count, 0);
        generation_ = 0;
    }
    if (++generation_ == 0) {
        // Stamp wraparound after 2^32 runs: every stored stamp is stale
        // by construction, so reset them all once and restart at 1.
        std::fill(stamp_.begin(), stamp_.end(), 0);
        generation_ = 1;
    }
    heap_.clear();
}

void SsspWorkspace::heap_push(HeapItem item) {
    heap_.push_back(item);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t p = (i - 1) / 4;
        if (!heap_less(heap_[i], heap_[p])) break;
        std::swap(heap_[i], heap_[p]);
        i = p;
    }
}

SsspWorkspace::HeapItem SsspWorkspace::heap_pop() {
    POC_ASSERT(!heap_.empty());
    const HeapItem top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    std::size_t i = 0;
    for (;;) {
        const std::size_t first = 4 * i + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = std::min(first + 4, n);
        for (std::size_t c = first + 1; c < last; ++c) {
            if (heap_less(heap_[c], heap_[best])) best = c;
        }
        if (!heap_less(heap_[best], heap_[i])) break;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
    return top;
}

void SsspWorkspace::append_path_to(NodeId target, std::vector<LinkId>& out) const {
    POC_EXPECTS(target.index() < dist_.size());
    POC_EXPECTS(reachable(target));
    out.clear();
    NodeId v = target;
    while (v != source_) {
        const LinkId pl = parent_[v.index()];
        POC_ASSERT(pl.valid());
        out.push_back(pl);
        v = pred_[v.index()];
    }
    std::reverse(out.begin(), out.end());
}

ShortestPathTree SsspWorkspace::to_tree() const {
    ShortestPathTree tree;
    tree.source = source_;
    const std::size_t n = dist_.size();
    tree.dist.assign(n, kInf);
    tree.parent_link.assign(n, LinkId{});
    tree.pred_node_.assign(n, NodeId{});
    for (std::size_t i = 0; i < n; ++i) {
        if (stamp_[i] == generation_) {
            tree.dist[i] = dist_[i];
            tree.parent_link[i] = parent_[i];
            tree.pred_node_[i] = pred_[i];
        }
    }
    return tree;
}

namespace detail {

// The whole fast path rests on this being bit-identical to the seed
// priority_queue implementation. The argument: a node is pushed only on
// a strict distance decrease, so all heap entries carry distinct
// distances per node, so every (dist, node) key in the heap is unique;
// a min-heap over a set of unique keys pops a uniquely determined
// sequence regardless of arity or internal layout. Identical pop order
// means identical relaxation order, and the arithmetic (nd = d + w) is
// unchanged, so dist/parent/pred match the seed bit for bit. Stopping
// at a target cuts the same pop sequence short, after the target's pop.
// An ActiveAdjacency drops only links the search would skip, and keeps
// the rest in Graph::incident order, so it relaxes the same links in
// the same order as the full lists.
template <class Incidence, class Weight>
void run_dijkstra(const Subgraph& sg, const Incidence& incidence, NodeId source,
                  Weight&& weight, SsspWorkspace& ws, NodeId target) {
    const Graph& g = sg.graph();
    POC_EXPECTS(source.index() < g.node_count());
    POC_EXPECTS(!target.valid() || target.index() < g.node_count());
    POC_OBS_INC("net.sssp.runs");
    // Summed here and recorded once per run, so the loop has no atomic.
    std::uint64_t settled = 0;
    std::uint64_t scanned = 0;

    // Flat SoA endpoints: the relaxation loop reads two uint32 lanes
    // instead of dereferencing 40-byte Link records. Identical values,
    // so the pop/relax order — and every output bit — is unchanged.
    const LinkSoa soa = g.link_soa();

    ws.prepare(g.node_count());
    ws.source_ = source;
    ws.stamp_[source.index()] = ws.generation_;
    ws.dist_[source.index()] = 0.0;
    ws.parent_[source.index()] = LinkId{};
    ws.pred_[source.index()] = NodeId{};
    ws.heap_push({0.0, source.value()});

    while (!ws.heap_.empty()) {
        const auto [d, u_raw] = ws.heap_pop();
        const NodeId u{u_raw};
        if (d > ws.dist_[u.index()]) continue;  // stale entry (u is always stamped)
        ++settled;
        if (u == target) break;
        const std::span<const LinkId> arcs = incidence.incident(u);
        scanned += arcs.size();
        for (const LinkId lid : arcs) {
            if (!sg.is_active(lid)) continue;
            const double w = weight(lid);
            POC_EXPECTS(w >= 0.0);
            const NodeId v{soa.other(lid.index(), u_raw)};
            const double nd = d + w;
            const bool seen = ws.stamp_[v.index()] == ws.generation_;
            if (!seen || nd < ws.dist_[v.index()]) {
                ws.stamp_[v.index()] = ws.generation_;
                ws.dist_[v.index()] = nd;
                ws.parent_[v.index()] = lid;
                ws.pred_[v.index()] = u;
                ws.heap_push({nd, v.value()});
            }
        }
    }
    POC_OBS_COUNT("net.sssp.settled", settled);
    POC_OBS_COUNT("net.sssp.scanned", scanned);
}

}  // namespace detail

ShortestPathTree dijkstra(const Subgraph& sg, NodeId source, const LinkWeight& weight) {
    SsspWorkspace ws;
    detail::run_dijkstra(sg, sg.graph(), source, weight, ws);
    return ws.to_tree();
}

void dijkstra_into(const Subgraph& sg, NodeId source, const LinkWeight& weight,
                   SsspWorkspace& ws) {
    detail::run_dijkstra(sg, sg.graph(), source, weight, ws);
}

namespace {

template <class Incidence>
void run_metric(const Subgraph& sg, const Incidence& incidence, NodeId source, SsspMetric metric,
                SsspWorkspace& ws) {
    switch (metric) {
        case SsspMetric::kLength:
            detail::run_dijkstra(sg, incidence, source, LengthWeight{sg.graph().link_soa()}, ws);
            break;
        case SsspMetric::kUnit:
            detail::run_dijkstra(sg, incidence, source, UnitWeight{}, ws);
            break;
    }
}

}  // namespace

void dijkstra_metric_into(const Subgraph& sg, NodeId source, SsspMetric metric,
                          SsspWorkspace& ws) {
    run_metric(sg, sg.graph(), source, metric, ws);
}

void dijkstra_metric_into(const Subgraph& sg, const ActiveAdjacency& incidence, NodeId source,
                          SsspMetric metric, SsspWorkspace& ws) {
    POC_EXPECTS(incidence.graph() == &sg.graph());
    run_metric(sg, incidence, source, metric, ws);
}

std::optional<ShortestPathTree> bellman_ford(const Subgraph& sg, NodeId source,
                                             const LinkWeight& weight) {
    const Graph& g = sg.graph();
    POC_EXPECTS(source.index() < g.node_count());

    ShortestPathTree tree;
    tree.source = source;
    tree.dist.assign(g.node_count(), kInf);
    tree.parent_link.assign(g.node_count(), LinkId{});
    tree.pred_node_.assign(g.node_count(), NodeId{});
    tree.dist[source.index()] = 0.0;

    const auto links = sg.active_links();
    const std::size_t n = g.node_count();
    bool changed = true;
    for (std::size_t round = 0; round < n && changed; ++round) {
        changed = false;
        for (const LinkId lid : links) {
            const Link& l = g.link(lid);
            const double w = weight(lid);
            auto relax = [&](NodeId from, NodeId to) {
                if (tree.dist[from.index()] == kInf) return;
                const double nd = tree.dist[from.index()] + w;
                if (nd < tree.dist[to.index()] - 1e-15) {
                    tree.dist[to.index()] = nd;
                    tree.parent_link[to.index()] = lid;
                    tree.pred_node_[to.index()] = from;
                    changed = true;
                }
            };
            relax(l.a, l.b);
            relax(l.b, l.a);
        }
        if (round == n - 1 && changed) return std::nullopt;  // negative cycle
    }
    return tree;
}

std::optional<WeightedPath> shortest_path(const Subgraph& sg, NodeId src, NodeId dst,
                                          const LinkWeight& weight) {
    SsspWorkspace ws;
    return shortest_path(sg, src, dst, weight, ws);
}

namespace {

template <class Incidence, class Weight>
std::optional<WeightedPath> search_path(const Subgraph& sg, const Incidence& incidence, NodeId src,
                                        NodeId dst, Weight&& weight, SsspWorkspace& ws) {
    detail::run_dijkstra(sg, incidence, src, std::forward<Weight>(weight), ws, dst);
    if (!ws.reachable(dst)) return std::nullopt;
    WeightedPath wp;
    ws.append_path_to(dst, wp.links);
    wp.weight = ws.dist(dst);
    return wp;
}

}  // namespace

std::optional<WeightedPath> shortest_path(const Subgraph& sg, NodeId src, NodeId dst,
                                          const LinkWeight& weight, SsspWorkspace& ws) {
    return search_path(sg, sg.graph(), src, dst, weight, ws);
}

std::optional<WeightedPath> shortest_path(const Subgraph& sg, const ActiveAdjacency& incidence,
                                          NodeId src, NodeId dst, const LinkWeightArray& weight,
                                          SsspWorkspace& ws) {
    WeightedPath wp;
    if (!shortest_path_into(sg, incidence, src, dst, weight, ws, wp)) return std::nullopt;
    return wp;
}

bool shortest_path_into(const Subgraph& sg, const ActiveAdjacency& incidence, NodeId src,
                        NodeId dst, const LinkWeightArray& weight, SsspWorkspace& ws,
                        WeightedPath& out) {
    POC_EXPECTS(incidence.graph() == &sg.graph());
    POC_EXPECTS(weight.size() == sg.graph().link_count());
    detail::run_dijkstra(sg, incidence, src, ArrayWeight{weight}, ws, dst);
    if (!ws.reachable(dst)) return false;
    ws.append_path_to(dst, out.links);
    out.weight = ws.dist(dst);
    return true;
}

std::vector<NodeId> path_nodes(const Graph& g, NodeId src, const std::vector<LinkId>& links) {
    std::vector<NodeId> nodes{src};
    NodeId cur = src;
    for (const LinkId lid : links) {
        cur = g.link(lid).other(cur);  // throws contract violation if walk breaks
        nodes.push_back(cur);
    }
    return nodes;
}

}  // namespace poc::net
