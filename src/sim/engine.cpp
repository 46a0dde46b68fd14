#include "sim/engine.hpp"

namespace poc::sim {

Engine::Engine(const EngineOptions& opt)
    : opt_(opt), path_cache_(1, opt.path_cache_repair_budget) {}

core::ProvisioningRequest Engine::wire(core::ProvisioningRequest request) {
    if (opt_.use_path_cache) request.oracle.path_cache = &path_cache_;
    if (opt_.use_delta_reclear && request.auction.delta == nullptr) {
        request.auction.delta = &delta_;
    }
    return request;
}

core::FlowSimOptions Engine::flow_options(core::FlowRouting routing) {
    core::FlowSimOptions flow;
    if (opt_.use_path_cache) flow.path_cache = &path_cache_;
    flow.routing = routing;
    flow.flow_shards = opt_.flow_shards;
    flow.flow_threads = opt_.flow_threads;
    return flow;
}

}  // namespace poc::sim
