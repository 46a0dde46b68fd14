// The benchmark's workloads: each drives sim::EpochRuntime with a
// serve::ServeEngine attached through its public entry points, times
// every call from outside, checks the outputs, and reports end-to-end
// and per-layer metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;
    /// Journals and snapshots go under here (removed afterwards).
    std::string work_dir = ".bench_build/run";
    /// Where the traced run writes its spans; empty = not written.
    std::string trace_out;
    /// Reference digests ("<workload> <hex>" lines); a workload with
    /// no line fails its reference check.
    std::string reference;
};

struct MetricDef {
    const char* name;
    const char* unit;
};

std::vector<std::string> workload_names();

/// Metrics the final JSON line carries without tracing.
const std::vector<MetricDef>& end_to_end_metrics();
/// Metrics the final JSON line carries with tracing.
const std::vector<MetricDef>& per_layer_metrics();

/// Run one workload for `seconds`, print the report and, as the last
/// line, the JSON result. Returns the process exit code: 0 only when
/// every output check passed.
int run_workload(const RunOptions& opt);

}  // namespace perfbench
