#include "sim/engine.hpp"

#include <bit>
#include <span>

#include "obs/metrics.hpp"

namespace poc::sim {

Engine::Engine(const EngineOptions& opt, const core::ProvisioningRequest& request,
               core::FlowRouting routing, const market::OfferPool& pool)
    : path_cache_(1, opt.path_cache_repair_budget),
      request_(request),
      virtual_links_(pool.virtual_links().links()),
      is_virtual_(pool.graph().link_count(), false) {
    if (opt.use_path_cache) {
        request_.oracle.path_cache = &path_cache_;
        flow_opt_.path_cache = &path_cache_;
    }
    if (opt.use_delta_reclear && request_.auction.delta == nullptr) {
        request_.auction.delta = &delta_;
    }
    for (const net::LinkId l : virtual_links_) is_virtual_[l.index()] = true;
    flow_opt_.routing = routing;
    flow_opt_.workspace = &flow_ws_;
}

core::FlowReport Engine::flows(const net::Subgraph& backbone, const net::TrafficMatrix& tm) {
    // The key holds every value a report reads, compared as bits: a
    // hash could collide, and a graph's address says nothing about its
    // capacities (chaos scales them in a copy that may reuse the
    // address). Bits also tell -0.0 from 0.0.
    const net::Graph& g = backbone.graph();
    const std::span<const char> mask = backbone.mask();
    flow_probe_.clear();
    flow_probe_.push_back(g.link_count());
    flow_probe_.push_back(backbone.active_count());
    for (std::size_t i = 0; i < mask.size(); ++i) {
        if (mask[i] == 0) continue;
        const net::Link& link = g.link(net::LinkId{i});
        flow_probe_.push_back(i);
        flow_probe_.push_back(std::uint64_t{link.a.value()} << 32 | link.b.value());
        flow_probe_.push_back(std::bit_cast<std::uint64_t>(link.capacity_gbps));
        flow_probe_.push_back(std::bit_cast<std::uint64_t>(link.length_km));
    }
    for (const net::Demand& d : tm) {
        flow_probe_.push_back(std::uint64_t{d.src.value()} << 32 | d.dst.value());
        flow_probe_.push_back(std::bit_cast<std::uint64_t>(d.gbps));
    }
    if (last_flows_ && flow_probe_ == flow_key_) {
        POC_OBS_INC("sim.engine.flow_reuses");
        return *last_flows_;
    }
    last_flows_ = core::simulate_flows(backbone, tm, is_virtual_, flow_opt_);
    flow_key_.swap(flow_probe_);
    return *last_flows_;
}

}  // namespace poc::sim
