#include "market/windet.hpp"

#include <algorithm>
#include <limits>
#include <utility>

namespace poc::market {

std::vector<net::LinkId> removal_order(const OfferPool& pool,
                                       const std::vector<net::LinkId>& links) {
    // The key is computed once per link, not per comparison.
    std::vector<std::pair<double, net::LinkId>> keyed;
    keyed.reserve(links.size());
    for (const net::LinkId l : links) {
        keyed.emplace_back(pool.price(l).dollars() / pool.graph().link(l).capacity_gbps, l);
    }
    std::sort(keyed.begin(), keyed.end(), [](const auto& a, const auto& b) {
        if (a.first != b.first) return a.first > b.first;
        return a.second < b.second;  // deterministic tie break
    });
    std::vector<net::LinkId> order;
    order.reserve(keyed.size());
    for (const auto& [key, link] : keyed) order.push_back(link);
    return order;
}

namespace {

/// State for the batched reverse deletion: active set, its party tally
/// and cost, and the oracle witness its queries share. Every query is
/// on a subset of the last committed set, the precondition the witness
/// needs. A step costs O(batch + parties), not O(offered links): it
/// moves the batch out of the tally and prices the tally.
class DeletionPass {
public:
    DeletionPass(const OfferPool& pool, const Oracle& oracle, net::Subgraph& sg,
                 OracleWitness& witness)
        : pool_(pool), oracle_(oracle), sg_(sg), tally_(pool.tally(sg)), witness_(witness) {
        const auto full_cost = pool_.total_cost(tally_, sg_);
        POC_EXPECTS(full_cost.has_value());  // offered sets are always priced
        cost_ = *full_cost;
    }

    util::Money cost() const noexcept { return cost_; }

    /// Try removing `batch` (all currently active). Commits when the
    /// result stays acceptable and does not cost more (tier discounts
    /// can make deletions *raise* C). On rejection, bisects. The set is
    /// priced before the oracle is asked, so every accept commits.
    void try_remove(const std::vector<net::LinkId>& batch) {
        if (batch.empty()) return;
        for (const net::LinkId l : batch) {
            POC_EXPECTS(sg_.is_active(l));
            sg_.set_active(l, false);
            tally_.remove(l);
        }
        const auto new_cost = pool_.total_cost(tally_, sg_);
        if (new_cost && *new_cost <= cost_ && oracle_.accepts(sg_, &witness_)) {
            cost_ = *new_cost;
            return;  // committed
        }
        for (const net::LinkId l : batch) {
            sg_.set_active(l, true);
            tally_.add(l);
        }
        if (batch.size() == 1) return;  // this link stays
        const auto mid = batch.begin() + static_cast<std::ptrdiff_t>(batch.size() / 2);
        try_remove({batch.begin(), mid});
        try_remove({mid, batch.end()});
    }

private:
    const OfferPool& pool_;
    const Oracle& oracle_;
    net::Subgraph& sg_;
    OfferPool::Tally tally_;
    util::Money cost_;
    OracleWitness& witness_;
};

}  // namespace

std::optional<Selection> select_links(const OfferPool& pool, const Oracle& oracle,
                                      const std::vector<net::LinkId>& available,
                                      const WinnerDeterminationOptions& opt) {
    return select_links(pool, oracle, available, removal_order(pool, available), opt);
}

std::optional<Selection> select_links(const OfferPool& pool, const Oracle& oracle,
                                      const std::vector<net::LinkId>& available,
                                      const std::vector<net::LinkId>& order,
                                      const WinnerDeterminationOptions& opt) {
    POC_EXPECTS(opt.batch_size >= 1);
    net::Subgraph sg(pool.graph(), available);
    OracleWitness witness;
    if (!oracle.accepts(sg, &witness)) return std::nullopt;

    DeletionPass pass(pool, oracle, sg, witness);

    // Both sweeps walk `order` and skip inactive links, which are the
    // links outside `available` plus those already removed: the order
    // of a subset is the order of the whole set filtered to it.
    const std::size_t available_count = sg.active_count();
    std::size_t visited = 0;
    std::size_t i = 0;
    while (i < order.size()) {
        std::vector<net::LinkId> batch;
        while (i < order.size() && batch.size() < opt.batch_size) {
            if (sg.is_active(order[i])) batch.push_back(order[i]);
            ++i;
        }
        visited += batch.size();
        pass.try_remove(batch);
    }
    // Every available link was met once, while still active.
    POC_EXPECTS(visited == available_count);

    // Marginal costs shifted as the set shrank; one more single-link
    // sweep in the same order catches stragglers.
    for (const net::LinkId l : order) {
        if (sg.is_active(l)) pass.try_remove({l});
    }

    Selection sel;
    sel.links = sg.active_links();
    sel.cost = pass.cost();
    POC_ENSURES(oracle.accepts(net::Subgraph(pool.graph(), sel.links)));
    return sel;
}

namespace {

/// Branch-and-bound engine for the exact solver.
class ExactSearch {
public:
    ExactSearch(const OfferPool& pool, const Oracle& oracle,
                std::vector<net::LinkId> order)
        : pool_(pool), oracle_(oracle), order_(std::move(order)), sg_(pool.graph(), order_) {}

    std::optional<Selection> run() {
        if (!oracle_.accepts(sg_)) return std::nullopt;
        // Seed the incumbent with the heuristic so pruning bites early.
        if (const auto seed = select_links(pool_, oracle_, order_)) {
            best_cost_ = seed->cost;
            best_links_ = seed->links;
        }
        dfs(0);
        if (best_cost_ == util::Money::from_micros(std::numeric_limits<std::int64_t>::max())) {
            return std::nullopt;
        }
        return Selection{best_links_, best_cost_};
    }

private:
    /// Admissible lower bound on the final cost given the links fixed-in
    /// so far: additive price with each BP's best tier discount applied
    /// (valid because discounts only shrink additive totals and bundle
    /// overrides are excluded by precondition).
    util::Money fixed_lower_bound() const {
        util::Money lb{};
        for (const BpBid& bid : pool_.bids()) {
            util::Money additive{};
            for (const net::LinkId l : fixed_in_) {
                if (pool_.owner(l) == bid.bp()) additive += bid.base_price(l);
            }
            lb += additive.scaled(1.0 - bid.max_discount_fraction());
        }
        for (const net::LinkId l : fixed_in_) {
            if (pool_.is_virtual(l)) lb += pool_.virtual_links().price(l);
        }
        return lb;
    }

    void dfs(std::size_t depth) {
        // Monotone acceptability: if even keeping every undecided link
        // fails, no completion can succeed.
        if (!oracle_.accepts(sg_)) return;
        if (fixed_lower_bound() >= best_cost_) return;

        if (depth == order_.size()) {
            const auto cost = pool_.total_cost(fixed_in_);
            POC_ASSERT(cost.has_value());
            if (*cost < best_cost_) {
                best_cost_ = *cost;
                best_links_ = fixed_in_;
                std::sort(best_links_.begin(), best_links_.end());
            }
            return;
        }

        const net::LinkId link = order_[depth];
        // Branch 1: exclude (cheaper subtree first).
        sg_.set_active(link, false);
        dfs(depth + 1);
        sg_.set_active(link, true);
        // Branch 2: include.
        fixed_in_.push_back(link);
        dfs(depth + 1);
        fixed_in_.pop_back();
    }

    const OfferPool& pool_;
    const Oracle& oracle_;
    std::vector<net::LinkId> order_;
    net::Subgraph sg_;
    std::vector<net::LinkId> fixed_in_;
    util::Money best_cost_ = util::Money::from_micros(std::numeric_limits<std::int64_t>::max());
    std::vector<net::LinkId> best_links_;
};

}  // namespace

std::optional<Selection> select_links_exact(const OfferPool& pool,
                                            const Oracle& oracle,
                                            const std::vector<net::LinkId>& available) {
    for (const BpBid& bid : pool.bids()) {
        POC_EXPECTS(!bid.has_bundle_overrides());
    }
    // Expensive links first: excluding them early finds cheap incumbents
    // sooner and tightens the bound.
    ExactSearch search(pool, oracle, removal_order(pool, available));
    return search.run();
}

}  // namespace poc::market
