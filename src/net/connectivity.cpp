#include "net/connectivity.hpp"

#include <algorithm>

namespace poc::net {

Components connected_components(const Subgraph& sg) {
    const Graph& g = sg.graph();
    Components comp;
    comp.label.assign(g.node_count(), ~std::uint32_t{0});
    // One FIFO for every BFS: each node is enqueued once over the whole
    // sweep, so the queue is this vector plus a read cursor.
    std::vector<NodeId> queue;
    queue.reserve(g.node_count());
    for (std::size_t start = 0; start < g.node_count(); ++start) {
        if (comp.label[start] != ~std::uint32_t{0}) continue;
        const std::uint32_t id = comp.count++;
        std::size_t head = queue.size();
        queue.push_back(NodeId{start});
        comp.label[start] = id;
        while (head < queue.size()) {
            const NodeId u = queue[head++];
            for (const LinkId lid : g.incident(u)) {
                if (!sg.is_active(lid)) continue;
                const NodeId v = g.link(lid).other(u);
                if (comp.label[v.index()] == ~std::uint32_t{0}) {
                    comp.label[v.index()] = id;
                    queue.push_back(v);
                }
            }
        }
    }
    return comp;
}

bool all_pairs_connected(const Subgraph& sg, const TrafficMatrix& tm) {
    const Components comp = connected_components(sg);
    return std::all_of(tm.begin(), tm.end(), [&](const Demand& d) {
        return d.gbps <= 0.0 || comp.same(d.src, d.dst);
    });
}

bool spanning_connected(const Subgraph& sg) {
    const Graph& g = sg.graph();
    const Components comp = connected_components(sg);
    std::uint32_t touched_component = ~std::uint32_t{0};
    for (std::size_t n = 0; n < g.node_count(); ++n) {
        const NodeId node{n};
        const bool has_active = std::any_of(
            g.incident(node).begin(), g.incident(node).end(),
            [&](LinkId lid) { return sg.is_active(lid); });
        if (!has_active) continue;
        if (touched_component == ~std::uint32_t{0}) {
            touched_component = comp.label[n];
        } else if (comp.label[n] != touched_component) {
            return false;
        }
    }
    return true;
}

namespace {

/// Iterative Tarjan bridge finder (recursion would overflow on long
/// chains in large generated topologies).
class BridgeFinder {
public:
    explicit BridgeFinder(const Subgraph& sg) : sg_(sg), g_(sg.graph()) {
        disc_.assign(g_.node_count(), 0);
        low_.assign(g_.node_count(), 0);
    }

    std::vector<LinkId> run() {
        for (std::size_t n = 0; n < g_.node_count(); ++n) {
            if (disc_[n] == 0) iterate(NodeId{n});
        }
        std::sort(bridges_.begin(), bridges_.end());
        return bridges_;
    }

private:
    struct Frame {
        NodeId node;
        LinkId via;  // link used to enter node (invalid at roots)
        std::size_t next_edge = 0;
    };

    void iterate(NodeId root) {
        std::vector<Frame> stack;
        stack.push_back(Frame{root, LinkId{}, 0});
        disc_[root.index()] = low_[root.index()] = ++timer_;

        while (!stack.empty()) {
            Frame& f = stack.back();
            const auto incident = g_.incident(f.node);
            if (f.next_edge < incident.size()) {
                const LinkId lid = incident[f.next_edge++];
                if (!sg_.is_active(lid)) continue;
                if (lid == f.via) {
                    // Skip the tree edge itself (each link id appears
                    // exactly once in this node's incident list); a
                    // *parallel* link to the parent has a distinct id
                    // and is correctly treated as a back edge below.
                    continue;
                }
                const NodeId v = g_.link(lid).other(f.node);
                if (disc_[v.index()] == 0) {
                    disc_[v.index()] = low_[v.index()] = ++timer_;
                    stack.push_back(Frame{v, lid, 0});
                } else {
                    low_[f.node.index()] = std::min(low_[f.node.index()], disc_[v.index()]);
                }
            } else {
                const Frame finished = f;
                stack.pop_back();
                if (!stack.empty()) {
                    Frame& parent = stack.back();
                    low_[parent.node.index()] =
                        std::min(low_[parent.node.index()], low_[finished.node.index()]);
                    if (low_[finished.node.index()] > disc_[parent.node.index()]) {
                        bridges_.push_back(finished.via);
                    }
                }
            }
        }
    }

    const Subgraph& sg_;
    const Graph& g_;
    std::vector<std::uint32_t> disc_;
    std::vector<std::uint32_t> low_;
    std::uint32_t timer_ = 0;
    std::vector<LinkId> bridges_;
};

}  // namespace

std::vector<LinkId> find_bridges(const Subgraph& sg) { return BridgeFinder(sg).run(); }

}  // namespace poc::net
