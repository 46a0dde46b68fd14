#include "serve/engine.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace poc::serve {

ServeEngine::ServeEngine(const market::OfferPool& pool, const net::TrafficMatrix& tm,
                         sim::RuntimeOptions runtime_opt, ServeOptions opt)
    : pool_(pool), tm_(tm), runtime_opt_(std::move(runtime_opt)), meter_(opt.meter) {}

ServeEngine::~ServeEngine() = default;

sim::RuntimeOptions& ServeEngine::attach(sim::RuntimeOptions& opt) {
    opt.on_epoch_commit = [this](const sim::EpochCommit& commit) { publish(commit); };
    return opt;
}

void ServeEngine::publish(const sim::EpochCommit& commit) noexcept {
    // Never throw back into the runtime: a failed view build keeps the
    // previous epoch published and counts the failure.
    try {
        const auto start = std::chrono::steady_clock::now();
        auto view = build_epoch_view(pool_.graph(), commit, hub_.current().get());
        hub_.publish(std::move(view));
        const auto dur = std::chrono::steady_clock::now() - start;
        const double swap_ms = std::chrono::duration<double, std::milli>(dur).count();
        POC_OBS_HISTOGRAM("serve.rollover_swap_ms", 0.0, 100.0, 50, swap_ms);
        POC_OBS_INC("serve.rollovers");
    } catch (...) {
        POC_OBS_INC("serve.publish_errors");
    }
}

Admission ServeEngine::admit(const std::string& account, double units) {
    const auto view = hub_.current();
    const double now = view ? static_cast<double>(view->completed_epochs) : 0.0;
    return meter_.admit(account, now, units);
}

QuoteReply ServeEngine::quote(const std::string& account, std::string_view bp_name) {
    POC_OBS_TIMER_MS("serve.quote_ms", 0.0, 50.0, 50);
    POC_OBS_INC("serve.queries");
    const auto view = hub_.current();
    if (!view) return {};
    const Admission adm = admit(account, kQuoteUnits);
    if (!adm.ok()) return refusal<QuoteReply>(adm.code);
    return quote_reply(*view, bp_name);
}

PathReply ServeEngine::path(const std::string& account, net::NodeId src, net::NodeId dst) {
    POC_OBS_TIMER_MS("serve.path_ms", 0.0, 50.0, 50);
    POC_OBS_INC("serve.queries");
    const auto view = hub_.current();
    if (!view) return {};
    const Admission adm = admit(account, kPathUnits);
    if (!adm.ok()) return refusal<PathReply>(adm.code);
    return path_reply(*view, src, dst);
}

SlaReply ServeEngine::sla(const std::string& account) {
    POC_OBS_TIMER_MS("serve.sla_ms", 0.0, 50.0, 50);
    POC_OBS_INC("serve.queries");
    const auto view = hub_.current();
    if (!view) return {};
    const Admission adm = admit(account, kSlaUnits);
    if (!adm.ok()) return refusal<SlaReply>(adm.code);
    return sla_reply(*view);
}

HistoryReply ServeEngine::at_epoch(const std::string& account,
                                   std::uint64_t completed_epochs) {
    POC_OBS_TIMER_MS("serve.history_ms", 0.0, 500.0, 50);
    POC_OBS_INC("serve.queries");
    const Admission adm = admit(account, kHistoryUnits);
    if (!adm.ok()) return refusal<HistoryReply>(adm.code);
    HistoryReply reply = history_reply(pool_, tm_, runtime_opt_, completed_epochs);
    // Epoch 0 is refused outright; only a failed materialization is a
    // miss.
    if (!reply.view && completed_epochs != 0) POC_OBS_INC("serve.history_misses");
    return reply;
}

}  // namespace poc::serve
