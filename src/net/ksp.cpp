#include "net/ksp.hpp"

#include <algorithm>
#include <set>

namespace poc::net {

namespace {

/// Total weight of a link sequence.
double path_weight(const std::vector<LinkId>& links, const LinkWeightArray& weight) {
    double w = 0.0;
    for (const LinkId l : links) w += weight[l.index()];
    return w;
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
    // The searches read a weight only for a link active in `sg`, so
    // only those entries are filled: the same doubles the function
    // would return per relaxation.
    const ActiveAdjacency incidence(sg);
    LinkWeightArray flat(sg.graph().link_count());
    for (const LinkId l : incidence.active_links()) flat[l.index()] = weight(l);
    auto first = shortest_path(sg, incidence, src, dst, flat, ws);
    if (!first) return {};
    return yen_k_shortest(sg, incidence, src, dst, flat, k, ws, std::move(*first));
}

std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, const ActiveAdjacency& incidence,
                                         NodeId src, NodeId dst, const LinkWeightArray& weight,
                                         std::size_t k, SsspWorkspace& ws, WeightedPath first,
                                         std::vector<LinkId>* footprint) {
    POC_EXPECTS(k >= 1);
    POC_EXPECTS(src != dst);
    POC_EXPECTS(incidence.graph() == &sg.graph());
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
                for (const LinkId lid : incidence.incident(prev_nodes[j])) {
                    if (work.is_active(lid)) {
                        work.set_active(lid, false);
                        removed_links.push_back(lid);
                    }
                }
            }

            if (auto spur = shortest_path(work, incidence, spur_node, dst, weight, ws)) {
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

}  // namespace poc::net
