// epoch_bench: the epoch-pipeline benchmark.
//
//   epoch_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               [--work-dir DIR] [--trace-out FILE] [--reference FILE]
//   epoch_bench --list-workloads
//   epoch_bench --list-metrics <0|1>
//
// The last line of standard output is the JSON result; see
// perfbench/run.py, which builds this binary and runs it.
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <string>

#include "workload.hpp"

namespace {

int usage() {
    std::cerr << "usage: epoch_bench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--trace-out FILE] [--reference FILE]\n"
                 "       epoch_bench --list-workloads | --list-metrics 0|1\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::RunOptions opt;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--list-workloads") {
                for (const std::string& w : perfbench::workload_names()) std::cout << w << "\n";
                return 0;
            }
            if (i + 1 >= argc) return usage();
            const std::string val = argv[++i];
            if (arg == "--list-metrics") {
                const auto& defs = val == "1" ? perfbench::per_layer_metrics()
                                              : perfbench::end_to_end_metrics();
                for (const auto& m : defs) std::cout << m.name << " " << m.unit << "\n";
                return 0;
            } else if (arg == "--workload") {
                opt.workload = val;
            } else if (arg == "--seed") {
                opt.seed = std::stoull(val);
            } else if (arg == "--seconds") {
                opt.seconds = std::stod(val);
            } else if (arg == "--trace") {
                opt.traced = val == "1";
            } else if (arg == "--work-dir") {
                opt.work_dir = val;
            } else if (arg == "--trace-out") {
                opt.trace_out = val;
            } else if (arg == "--reference") {
                opt.reference = val;
            } else {
                return usage();
            }
        }
        if (opt.workload.empty() || !(opt.seconds > 0.0)) return usage();
        return perfbench::run_workload(opt);
    } catch (const std::exception& e) {
        std::cerr << "epoch_bench: " << e.what() << "\n";
        return 1;
    }
}
