#include "net/ksp.hpp"

#include <algorithm>
#include <utility>

namespace poc::net {

namespace {

/// The candidate order of eager Yen's ordered set: weight, then links.
bool candidate_less(const WeightedPath& a, const WeightedPath& b) {
    if (a.weight != b.weight) return a.weight < b.weight;
    return a.links < b.links;
}

}  // namespace

void YenPaths::reset(const Subgraph& sg, const ActiveAdjacency& incidence, NodeId src, NodeId dst,
                     const WeightedPath& first) {
    POC_EXPECTS(src != dst);
    POC_EXPECTS(incidence.graph() == &sg.graph());
    incidence_ = &incidence;
    src_ = src;
    dst_ = dst;
    if (work_) {
        *work_ = sg;
    } else {
        work_.emplace(sg);
    }
    if (paths_.empty()) paths_.emplace_back();
    paths_[0].links = first.links;
    paths_[0].weight = first.weight;
    found_ = 1;
    candidate_count_ = 0;
}

bool YenPaths::advance(const LinkWeightArray& weight, SsspWorkspace& ws,
                       std::vector<LinkId>* footprint) {
    POC_EXPECTS(found_ >= 1);
    Subgraph& work = *work_;
    const Graph& g = work.graph();
    POC_EXPECTS(weight.size() == g.link_count());

    // Spur searches from every node but the last of the last path found.
    const std::vector<LinkId>& prev = paths_[found_ - 1].links;
    prev_nodes_.clear();
    prev_nodes_.push_back(src_);
    for (const LinkId l : prev) prev_nodes_.push_back(g.link(l).other(prev_nodes_.back()));

    for (std::size_t i = 0; i + 1 < prev_nodes_.size(); ++i) {
        const NodeId spur_node = prev_nodes_[i];
        // Root: the first i links of the previous path.
        const auto root_end = prev.begin() + static_cast<std::ptrdiff_t>(i);
        double root_weight = 0.0;
        for (auto it = prev.begin(); it != root_end; ++it) root_weight += weight[it->index()];

        // Deactivate the next link of every path found sharing this
        // root, so the spur deviates.
        removed_.clear();
        for (std::size_t p = 0; p < found_; ++p) {
            const std::vector<LinkId>& links = paths_[p].links;
            if (links.size() > i && std::equal(prev.begin(), root_end, links.begin())) {
                const LinkId next = links[i];
                if (work.is_active(next)) {
                    work.set_active(next, false);
                    removed_.push_back(next);
                }
            }
        }
        // Deactivate all links incident to root nodes (except the spur
        // node) to keep paths loopless.
        for (std::size_t j = 0; j < i; ++j) {
            for (const LinkId lid : incidence_->incident(prev_nodes_[j])) {
                if (work.is_active(lid)) {
                    work.set_active(lid, false);
                    removed_.push_back(lid);
                }
            }
        }

        if (shortest_path_into(work, *incidence_, spur_node, dst_, weight, ws, spur_)) {
            if (footprint != nullptr) {
                footprint->insert(footprint->end(), spur_.links.begin(), spur_.links.end());
            }
            if (candidate_count_ == candidates_.size()) candidates_.emplace_back();
            WeightedPath& total = candidates_[candidate_count_];
            total.links.assign(prev.begin(), root_end);
            total.links.insert(total.links.end(), spur_.links.begin(), spur_.links.end());
            total.weight = root_weight + spur_.weight;
            const auto candidates_end =
                candidates_.begin() + static_cast<std::ptrdiff_t>(candidate_count_);
            const bool known = std::any_of(candidates_.begin(), candidates_end,
                                           [&](const WeightedPath& c) {
                                               return c.weight == total.weight &&
                                                      c.links == total.links;
                                           });
            if (!known) ++candidate_count_;
        }

        for (const LinkId lid : removed_) work.set_active(lid, true);
    }
    return pop_candidate();
}

bool YenPaths::pop_candidate() {
    while (candidate_count_ > 0) {
        std::size_t best = 0;
        for (std::size_t c = 1; c < candidate_count_; ++c) {
            if (candidate_less(candidates_[c], candidates_[best])) best = c;
        }
        --candidate_count_;
        std::swap(candidates_[best], candidates_[candidate_count_]);
        WeightedPath& next = candidates_[candidate_count_];
        const auto found_end = paths_.begin() + static_cast<std::ptrdiff_t>(found_);
        const bool duplicate = std::any_of(paths_.begin(), found_end, [&](const WeightedPath& p) {
            return p.links == next.links;
        });
        if (duplicate) continue;
        if (found_ == paths_.size()) paths_.emplace_back();
        std::swap(paths_[found_], next);
        ++found_;
        return true;
    }
    return false;  // path space exhausted
}

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
    return yen_k_shortest(sg, incidence, src, dst, flat, k, ws, *first);
}

std::vector<WeightedPath> yen_k_shortest(const Subgraph& sg, const ActiveAdjacency& incidence,
                                         NodeId src, NodeId dst, const LinkWeightArray& weight,
                                         std::size_t k, SsspWorkspace& ws,
                                         const WeightedPath& first) {
    POC_EXPECTS(k >= 1);
    YenPaths yen;
    yen.reset(sg, incidence, src, dst, first);
    while (yen.size() < k && yen.advance(weight, ws)) {
    }
    std::vector<WeightedPath> result;
    result.reserve(yen.size());
    for (std::size_t i = 0; i < yen.size(); ++i) result.push_back(yen.path(i));
    return result;
}

}  // namespace poc::net
