// Graph core for the POC backbone: an undirected multigraph of
// capacitated links between routers. The auction reasons about *subsets*
// of links, so every algorithm in poc::net runs against a Subgraph view
// (graph + active-link mask) rather than a copied graph; toggling a link
// in or out of consideration is O(1).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/contracts.hpp"
#include "util/ids.hpp"

namespace poc::net {

using NodeId = util::Id<struct NodeTag>;
using LinkId = util::Id<struct LinkTag>;

/// An undirected capacitated link. `capacity_gbps` bounds total flow in
/// both directions combined (a leased wavelength is full-duplex, but the
/// auction's traffic matrix is directional; we model the common case of
/// symmetric provisioning by charging both directions against the same
/// capacity, which is conservative).
struct Link {
    NodeId a;
    NodeId b;
    double capacity_gbps = 0.0;
    /// Routing weight; by convention the geographic length in km (so
    /// shortest paths approximate lowest latency).
    double length_km = 0.0;

    /// The endpoint that is not `from`. Requires from ∈ {a, b}.
    NodeId other(NodeId from) const {
        POC_EXPECTS(from == a || from == b);
        return from == a ? b : a;
    }
};

/// Flat struct-of-arrays view of a Graph's link table (DESIGN.md §9):
/// parallel endpoint/capacity/length arrays indexed by link id, built
/// alongside the CSR adjacency, so data-plane scans (Dijkstra inner
/// loops, shard-local load accumulation) touch contiguous 4/8-byte
/// lanes instead of striding through Link records. Values mirror the
/// AoS `Link` fields exactly; spans are invalidated by the next
/// add_node/add_link.
struct LinkSoa {
    std::span<const NodeId::underlying_type> a;
    std::span<const NodeId::underlying_type> b;
    std::span<const double> capacity_gbps;
    std::span<const double> length_km;

    /// The endpoint of link `l` that is not `from` (raw-id form of
    /// Link::other). Requires from ∈ {a[l], b[l]}.
    NodeId::underlying_type other(std::size_t l, NodeId::underlying_type from) const {
        POC_EXPECTS(from == a[l] || from == b[l]);
        return from == a[l] ? b[l] : a[l];
    }
};

/// Immutable-after-build undirected multigraph.
class Graph {
public:
    Graph() = default;

    /// Pre-size the node and link stores (plus the flat index arrays
    /// warmed later), so building a 10^5-node synthetic topology does
    /// not rehash/realloc its way up. Safe to call at any time.
    void reserve(std::size_t nodes, std::size_t links);

    /// Create `count` nodes, returning the id of the first. Node labels
    /// are optional and for reporting only.
    NodeId add_node(std::string label = {});
    NodeId add_nodes(std::size_t count);

    /// Add an undirected link. Self-loops are rejected (a leased circuit
    /// connects two distinct routers). Parallel links are allowed: two
    /// BPs may offer circuits between the same city pair.
    LinkId add_link(NodeId a, NodeId b, double capacity_gbps, double length_km);

    std::size_t node_count() const noexcept { return node_labels_.size(); }
    std::size_t link_count() const noexcept { return links_.size(); }

    const Link& link(LinkId id) const {
        POC_EXPECTS(id.index() < links_.size());
        return links_[id.index()];
    }

    const std::string& node_label(NodeId id) const {
        POC_EXPECTS(id.index() < node_labels_.size());
        return node_labels_[id.index()];
    }

    /// Links incident to `node` (both parallel and distinct neighbors).
    std::span<const LinkId> incident(NodeId node) const;

    /// All link ids, in insertion order.
    std::vector<LinkId> all_links() const;

    /// The flat SoA link arrays (built lazily with the adjacency).
    LinkSoa link_soa() const {
        ensure_adjacency_current();
        return LinkSoa{soa_a_, soa_b_, soa_capacity_, soa_length_};
    }

    /// Build the lazy adjacency index (and the SoA link arrays) now.
    /// They are otherwise built on the first incident()/link_soa()
    /// call, which is not safe when concurrent readers race to be that
    /// first call; the parallel auction engine and the shard engine
    /// warm them before fanning out.
    void warm_adjacency() const { ensure_adjacency_current(); }

private:
    void ensure_adjacency_current() const;

    std::vector<std::string> node_labels_;
    std::vector<Link> links_;

    // CSR adjacency + SoA link arrays, rebuilt lazily after insertion.
    mutable std::vector<std::uint32_t> adj_offsets_;
    mutable std::vector<LinkId> adj_links_;
    mutable std::vector<NodeId::underlying_type> soa_a_;
    mutable std::vector<NodeId::underlying_type> soa_b_;
    mutable std::vector<double> soa_capacity_;
    mutable std::vector<double> soa_length_;
    mutable bool adjacency_dirty_ = true;
};

/// A view of a Graph restricted to a subset of its links. Cheap to copy;
/// the mask is a shared-size vector<char> (not vector<bool>, for speed).
class Subgraph {
public:
    /// View with every link active.
    explicit Subgraph(const Graph& graph);

    /// View with exactly the given links active.
    Subgraph(const Graph& graph, const std::vector<LinkId>& active);

    const Graph& graph() const noexcept { return *graph_; }

    bool is_active(LinkId id) const {
        POC_EXPECTS(id.index() < mask_.size());
        return mask_[id.index()] != 0;
    }

    void set_active(LinkId id, bool active) {
        POC_EXPECTS(id.index() < mask_.size());
        const char now = active ? 1 : 0;
        if (mask_[id.index()] != now) {
            mask_[id.index()] = now;
            active_count_ += active ? 1 : static_cast<std::size_t>(-1);
            fingerprint_ ^= link_fingerprint(id.index());
        }
    }

    std::size_t active_count() const noexcept { return active_count_; }

    /// Order-independent hash of the active-link set, maintained
    /// incrementally (XOR of a per-link mix), so two views over the same
    /// graph have equal fingerprints iff — up to 64-bit collisions —
    /// their active sets are equal, no matter in which order the masks
    /// were built. net::PathCache keys routing state on this; see
    /// DESIGN.md §6 for the collision model.
    std::uint64_t fingerprint() const noexcept { return fingerprint_; }

    /// The fingerprint contribution of one link (splitmix64 of its
    /// index), exposed so tests can state collision expectations.
    static std::uint64_t link_fingerprint(std::size_t link_index) noexcept {
        std::uint64_t z = link_index + 0x9e3779b97f4a7c15ULL;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

    /// Active links in id order.
    std::vector<LinkId> active_links() const;

    /// The raw per-link activity mask (1 byte per link, indexed by link
    /// id). Exposed so net::PathCache can diff two views of the same
    /// graph family link-by-link when deciding whether a cached tree is
    /// repairable (DESIGN.md §7).
    std::span<const char> mask() const noexcept { return mask_; }

    std::size_t node_count() const noexcept { return graph_->node_count(); }

private:
    const Graph* graph_;
    std::vector<char> mask_;
    std::size_t active_count_ = 0;
    std::uint64_t fingerprint_ = 0;
};

/// Compact incidence lists of one Subgraph's active links (DESIGN.md
/// §6): per-node offsets into one array of link ids, built with one pass
/// over the mask. A node's list is Graph::incident(node) filtered to the
/// active links, in the same order (link-id order), so a search that
/// scans it relaxes the same links in the same order as one that scans
/// the full list and skips inactive links. A search over a subset of the
/// set it was built from may scan it too, skipping what the subset
/// lacks. Rebuilding reuses capacity; the lists are a copy, so later
/// changes to the Subgraph do not reach them.
class ActiveAdjacency {
public:
    ActiveAdjacency() = default;
    explicit ActiveAdjacency(const Subgraph& sg) { assign(sg); }

    /// Rebuild for `sg`'s active links.
    void assign(const Subgraph& sg);

    /// The graph of the last assign(); null before the first.
    const Graph* graph() const noexcept { return graph_; }

    /// Active links incident to `node`, in Graph::incident order.
    std::span<const LinkId> incident(NodeId node) const {
        POC_EXPECTS(node.index() + 1 < offsets_.size());
        return std::span<const LinkId>(links_).subspan(
            offsets_[node.index()], offsets_[node.index() + 1] - offsets_[node.index()]);
    }

    /// The active links, in id order.
    std::span<const LinkId> active_links() const noexcept { return active_; }

private:
    const Graph* graph_ = nullptr;
    std::vector<std::uint32_t> offsets_;
    std::vector<LinkId> links_;
    std::vector<LinkId> active_;
};

/// A directional traffic demand between two routers.
struct Demand {
    NodeId src;
    NodeId dst;
    double gbps = 0.0;
};

/// A point-to-point traffic matrix as a demand list (sparse form).
using TrafficMatrix = std::vector<Demand>;

/// Sum of all demand volumes.
double total_demand(const TrafficMatrix& tm);

/// Flat struct-of-arrays traffic matrix, source-sorted (DESIGN.md §9).
/// Demands are held in parallel src/dst/gbps arrays permuted into
/// ascending-source order; ties keep their AoS order, so the
/// permutation is stable and `original_index()` inverts it exactly.
/// Equal-source demands form contiguous *blocks* (`sources()` /
/// `block_begin()`), which is what lets the shard engine hand each
/// shard a contiguous, cache-friendly range of whole source groups.
class TrafficMatrixSoA {
public:
    TrafficMatrixSoA() = default;
    explicit TrafficMatrixSoA(const TrafficMatrix& tm) { assign(tm); }

    /// Rebuild from `tm` (counting sort on the source id: O(D + max
    /// source)). Reuses capacity, so repeated epochs over same-shaped
    /// matrices are allocation-free in the steady state.
    void assign(const TrafficMatrix& tm);

    std::size_t size() const noexcept { return gbps_.size(); }
    bool empty() const noexcept { return gbps_.empty(); }

    /// Sorted-order demand arrays: entry k is demand
    /// (src()[k] -> dst()[k], gbps()[k]).
    std::span<const NodeId::underlying_type> src() const noexcept { return src_; }
    std::span<const NodeId::underlying_type> dst() const noexcept { return dst_; }
    std::span<const double> gbps() const noexcept { return gbps_; }

    /// original_index()[k] = position of sorted entry k in the AoS
    /// list — the stable source-sorted permutation.
    std::span<const std::uint32_t> original_index() const noexcept { return order_; }

    /// Distinct sources in ascending id order; source s =
    /// sources()[k]'s demands occupy sorted positions
    /// [block_begin()[k], block_begin()[k+1]). block_begin() has
    /// sources().size() + 1 entries; block_begin()[k] is also the
    /// cumulative demand count of the first k blocks, which is what
    /// the shard planner balances on.
    std::span<const NodeId::underlying_type> sources() const noexcept { return sources_; }
    std::span<const std::uint32_t> block_begin() const noexcept { return block_begin_; }

    /// Reconstruct the AoS demand list in original order (the SoA↔AoS
    /// round trip is exact: to_aos() == the assign() input).
    TrafficMatrix to_aos() const;

private:
    std::vector<NodeId::underlying_type> src_;
    std::vector<NodeId::underlying_type> dst_;
    std::vector<double> gbps_;
    std::vector<std::uint32_t> order_;
    std::vector<NodeId::underlying_type> sources_;
    std::vector<std::uint32_t> block_begin_;
    std::vector<std::uint32_t> counts_;  // counting-sort scratch
};

}  // namespace poc::net
