#include "net/ksp.hpp"

#include <algorithm>
#include <set>

namespace poc::net {

namespace {

double link_weight(const LinkWeight& weight, LinkId l) { return weight(l); }
double link_weight(const LinkWeightArray& weight, LinkId l) { return weight[l.index()]; }

/// Total weight of a link sequence.
template <class Weight>
double path_weight(const std::vector<LinkId>& links, const Weight& weight) {
    double w = 0.0;
    for (const LinkId l : links) w += link_weight(weight, l);
    return w;
}

/// Yen's loop from the first (shortest) path onward. `Weight` is a
/// LinkWeight or a LinkWeightArray; both feed shortest_path the same
/// doubles, so the paths are identical for equal weights. Spur paths
/// are appended to a non-null `footprint`.
template <class Weight>
std::vector<WeightedPath> yen_from_first(const Subgraph& sg, NodeId src, NodeId dst,
                                         const Weight& weight, std::size_t k,
                                         SsspWorkspace& ws, WeightedPath first,
                                         std::vector<LinkId>* footprint) {
    POC_EXPECTS(k >= 1);
    POC_EXPECTS(src != dst);
    const Graph& g = sg.graph();

    std::vector<WeightedPath> result;
    result.push_back(std::move(first));

    // Candidate set ordered by weight; dedup on link sequence.
    auto cmp = [](const WeightedPath& a, const WeightedPath& b) {
        if (a.weight != b.weight) return a.weight < b.weight;
        return a.links < b.links;
    };
    std::set<WeightedPath, decltype(cmp)> candidates(cmp);

    Subgraph work = sg;  // mutated and restored around each spur search

    while (result.size() < k) {
        const WeightedPath& prev = result.back();
        const std::vector<NodeId> prev_nodes = path_nodes(g, src, prev.links);

        for (std::size_t i = 0; i + 1 < prev_nodes.size(); ++i) {
            const NodeId spur_node = prev_nodes[i];
            // Root: the first i links of the previous path.
            std::vector<LinkId> root(prev.links.begin(),
                                     prev.links.begin() + static_cast<std::ptrdiff_t>(i));
            const double root_weight = path_weight(root, weight);

            // Deactivate the next link of every accepted path sharing
            // this root, so the spur deviates.
            std::vector<LinkId> removed_links;
            for (const WeightedPath& p : result) {
                if (p.links.size() > i &&
                    std::equal(root.begin(), root.end(), p.links.begin())) {
                    const LinkId next = p.links[i];
                    if (work.is_active(next)) {
                        work.set_active(next, false);
                        removed_links.push_back(next);
                    }
                }
            }
            // Deactivate all links incident to root nodes (except the
            // spur node) to keep paths loopless.
            for (std::size_t j = 0; j < i; ++j) {
                for (const LinkId lid : g.incident(prev_nodes[j])) {
                    if (work.is_active(lid)) {
                        work.set_active(lid, false);
                        removed_links.push_back(lid);
                    }
                }
            }

            if (auto spur = shortest_path(work, spur_node, dst, weight, ws)) {
                if (footprint != nullptr) {
                    footprint->insert(footprint->end(), spur->links.begin(), spur->links.end());
                }
                WeightedPath total;
                total.links = root;
                total.links.insert(total.links.end(), spur->links.begin(), spur->links.end());
                total.weight = root_weight + spur->weight;
                candidates.insert(std::move(total));
            }

            for (const LinkId lid : removed_links) work.set_active(lid, true);
        }

        // Pop candidates until we find one not already accepted.
        bool advanced = false;
        while (!candidates.empty()) {
            WeightedPath best = *candidates.begin();
            candidates.erase(candidates.begin());
            const bool duplicate =
                std::any_of(result.begin(), result.end(),
                            [&](const WeightedPath& p) { return p.links == best.links; });
            if (!duplicate) {
                result.push_back(std::move(best));
                advanced = true;
                break;
            }
        }
        if (!advanced) break;  // path space exhausted
    }
    return result;
}

}  // namespace

std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeight& weight, std::size_t k) {
    SsspWorkspace ws;
    return yen_k_shortest(sg, src, dst, weight, k, ws);
}

std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeight& weight, std::size_t k,
                                         SsspWorkspace& ws) {
    POC_EXPECTS(k >= 1);
    POC_EXPECTS(src != dst);
    auto first = shortest_path(sg, src, dst, weight, ws);
    if (!first) return {};
    return yen_from_first(sg, src, dst, weight, k, ws, std::move(*first), nullptr);
}

std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, NodeId src, NodeId dst,
                                         const LinkWeightArray& weight, std::size_t k,
                                         SsspWorkspace& ws, WeightedPath first,
                                         std::vector<LinkId>* footprint) {
    return yen_from_first(sg, src, dst, weight, k, ws, std::move(first), footprint);
}

}  // namespace poc::net
