#include "sim/engine.hpp"

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

}  // namespace poc::sim
