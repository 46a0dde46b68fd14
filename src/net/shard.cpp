#include "net/shard.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace poc::net {

namespace {

/// Shared by plan_shards and the engine so the engine can plan into a
/// reused workspace buffer (the public wrapper allocates, the engine's
/// steady state must not). Boundaries are block indices into
/// tm.sources(); block_begin doubles as the cumulative demand count, so
/// lower_bound on it lands each cut at the demand-balanced target while
/// the clamp keeps cuts strictly increasing with >= 1 block per
/// remaining shard.
void plan_into(const TrafficMatrixSoA& tm, std::size_t shards,
               std::vector<std::uint32_t>& begin) {
    begin.clear();
    begin.push_back(0);
    const std::size_t blocks = tm.sources().size();
    if (blocks == 0) {
        begin.clear();
        begin.push_back(0);
        return;
    }
    const std::size_t t = std::clamp<std::size_t>(shards == 0 ? 1 : shards, 1, blocks);
    const auto bb = tm.block_begin();
    const std::uint64_t total = bb[blocks];
    std::uint32_t prev = 0;
    for (std::size_t s = 1; s < t; ++s) {
        const auto target = static_cast<std::uint32_t>(total * s / t);
        const auto found = std::lower_bound(bb.begin(), bb.end(), target) - bb.begin();
        const auto lo = prev + 1;
        const auto hi = static_cast<std::uint32_t>(blocks - (t - s));
        const auto cut = std::clamp(static_cast<std::uint32_t>(found), lo, hi);
        begin.push_back(cut);
        prev = cut;
    }
    begin.push_back(static_cast<std::uint32_t>(blocks));
}

/// Reconstruct src->dst link order from a cached tree into `out` — the
/// same walk-then-reverse as SsspWorkspace::append_path_to, so the
/// per-path fold order (and thus every accumulated bit) is identical
/// whether the tree came from the cache or a local Dijkstra.
void append_tree_path(const ShortestPathTree& tree, NodeId target, std::vector<LinkId>& out) {
    out.clear();
    NodeId v = target;
    while (v != tree.source) {
        const LinkId pl = tree.parent_link[v.index()];
        POC_ASSERT(pl.valid());
        out.push_back(pl);
        v = tree.pred_node_[v.index()];
    }
    std::reverse(out.begin(), out.end());
}

}  // namespace

ShardPlan plan_shards(const TrafficMatrixSoA& tm, std::size_t shards) {
    ShardPlan plan;
    plan_into(tm, shards, plan.source_begin);
    return plan;
}

void sharded_primary_flow(const Subgraph& sg, const TrafficMatrixSoA& tm,
                          const ShardOptions& opt, ShardWorkspace& ws, ShardFlowResult& out) {
    POC_OBS_SPAN("net.shard.run");
    const Graph& g = sg.graph();
    POC_EXPECTS(opt.is_virtual == nullptr || opt.is_virtual->size() == g.link_count());
    // Build the lazy adjacency + SoA index before fanning out; shard
    // tasks may only read it.
    g.warm_adjacency();
    const LinkSoa soa = g.link_soa();
    const std::size_t link_count = g.link_count();

    out.link_load_gbps.assign(link_count, 0.0);
    out.routed_gbps = 0.0;
    out.weighted_km = 0.0;
    out.total_gbps_km = 0.0;
    out.virtual_gbps_km = 0.0;
    out.admitted = 0;
    out.unrouted = 0;

    plan_into(tm, opt.shards, ws.plan_);
    const std::size_t shard_count = ws.plan_.empty() ? 0 : ws.plan_.size() - 1;
    if (ws.shards_.size() != shard_count) ws.shards_.resize(shard_count);

    POC_OBS_INC("net.shard.runs");
    POC_OBS_COUNT("net.shard.demands", tm.size());
    POC_OBS_COUNT("net.shard.tasks", shard_count);

    const auto src = tm.src();
    const auto dst = tm.dst();
    const auto gbps = tm.gbps();
    const auto sources = tm.sources();
    const auto block_begin = tm.block_begin();
    const std::vector<bool>* is_virtual = opt.is_virtual;

    // Phase 1 — shared-nothing shard tasks. Each task writes only its
    // own ShardWorkspace::Shard; the graph, matrix, and plan are read
    // shared. All floating-point work here is per-source: one source's
    // tree plus folds over that source's demand block in sorted order,
    // independent of shard boundaries and schedule.
    const auto run_shard = [&](std::size_t s) {
        POC_OBS_SPAN("net.shard.task");
#if POC_OBS_ENABLED
        const auto t0 = std::chrono::steady_clock::now();
#endif
        ShardWorkspace::Shard& sh = ws.shards_[s];
        sh.partials.clear();
        sh.touched_links.clear();
        sh.touched_delta.clear();
        if (sh.scratch.size() != link_count) {
            sh.scratch.assign(link_count, 0.0);
            sh.stamp.assign(link_count, 0);
            sh.generation = 0;
        }

        for (std::uint32_t k = ws.plan_[s]; k < ws.plan_[s + 1]; ++k) {
            const NodeId source{sources[k]};

            // One tree per source: cache-served (bit-identical to cold,
            // incl. repaired trees) or a local workspace Dijkstra.
            std::shared_ptr<const ShortestPathTree> cached;
            if (opt.cache != nullptr) {
                cached = opt.cache->tree(sg, source, opt.metric);
            } else {
                dijkstra_metric_into(sg, source, opt.metric, sh.sssp);
            }

            if (++sh.generation == 0) {
                std::fill(sh.stamp.begin(), sh.stamp.end(), 0);
                sh.generation = 1;
            }
            ShardWorkspace::SourcePartial p;
            p.touched_begin = static_cast<std::uint32_t>(sh.touched_links.size());

            for (std::uint32_t j = block_begin[k]; j < block_begin[k + 1]; ++j) {
                const double d = gbps[j];
                if (d <= 0.0) continue;
                const NodeId target{dst[j]};
                POC_ASSERT(src[j] == sources[k]);
                const bool reachable = cached ? cached->reachable(target)
                                              : sh.sssp.reachable(target);
                if (!reachable) {
                    ++p.unrouted;
                    continue;
                }
                ++p.admitted;
                p.routed += d;
                const double km = cached ? cached->dist[target.index()]
                                         : sh.sssp.dist(target);
                p.weighted_km += d * km;
                if (cached) {
                    append_tree_path(*cached, target, sh.path);
                } else {
                    sh.sssp.append_path_to(target, sh.path);
                }
                for (const LinkId lid : sh.path) {
                    const std::size_t l = lid.index();
                    const double gkm = d * soa.length_km[l];
                    p.gbps_km += gkm;
                    if (is_virtual != nullptr && (*is_virtual)[l]) p.virtual_gbps_km += gkm;
                    if (sh.stamp[l] != sh.generation) {
                        sh.stamp[l] = sh.generation;
                        sh.scratch[l] = 0.0;
                        sh.touched_links.push_back(static_cast<std::uint32_t>(l));
                    }
                    sh.scratch[l] += d;
                }
            }

            // Freeze this source's sparse link deltas. Each delta is a
            // fold of the block's demand volumes in sorted order — the
            // same doubles whatever shard the source landed in.
            p.touched_end = static_cast<std::uint32_t>(sh.touched_links.size());
            for (std::uint32_t i = p.touched_begin; i < p.touched_end; ++i) {
                sh.touched_delta.push_back(sh.scratch[sh.touched_links[i]]);
            }
            sh.partials.push_back(p);
        }
#if POC_OBS_ENABLED
        sh.elapsed_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
#endif
    };

    util::parallel_for(opt.threads, shard_count, run_shard);

#if POC_OBS_ENABLED
    if (shard_count > 0) {
        double max_ms = 0.0;
        double sum_ms = 0.0;
        for (const auto& sh : ws.shards_) {
            max_ms = std::max(max_ms, sh.elapsed_ms);
            sum_ms += sh.elapsed_ms;
        }
        const double mean_ms = sum_ms / static_cast<double>(shard_count);
        // max/mean shard runtime in percent (100 = perfectly balanced).
        POC_OBS_GAUGE_SET("net.shard.imbalance",
                          mean_ms > 0.0 ? std::llround(max_ms / mean_ms * 100.0) : 100);
    }
#endif

    // Phase 2 — deterministic serial merge. Shards hold contiguous
    // ascending source ranges and are visited in shard order, so every
    // fold below runs over per-source partials in ascending source
    // order regardless of how many shards there were.
    {
        POC_OBS_TIMER_MS("net.shard.merge_ms", 0.0, 250.0, 50);
        for (std::size_t s = 0; s < shard_count; ++s) {
            const ShardWorkspace::Shard& sh = ws.shards_[s];
            for (const ShardWorkspace::SourcePartial& p : sh.partials) {
                out.routed_gbps += p.routed;
                out.weighted_km += p.weighted_km;
                out.total_gbps_km += p.gbps_km;
                out.virtual_gbps_km += p.virtual_gbps_km;
                out.admitted += p.admitted;
                out.unrouted += p.unrouted;
                for (std::uint32_t i = p.touched_begin; i < p.touched_end; ++i) {
                    out.link_load_gbps[sh.touched_links[i]] += sh.touched_delta[i];
                }
            }
        }
    }
    POC_OBS_COUNT("net.shard.demands_admitted", out.admitted);
}

}  // namespace poc::net
