// loopbench: the paper's controller loop end to end on testbed6.
//
//   loopbench --workload steady_testbed6|contended_testbed6|flap_testbed6
//             --seed N --seconds S --trace 0|1
//
// Starts the default Controller (default ControllerConfig, SchedulerConfig
// and AdmissionStrategy::kBate) and two Brokers in-process over loopback,
// drives the workload from one generator thread on one user connection,
// watches the brokers from one watcher thread, checks the outputs and
// prints every metric by name and unit. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics (run with BATE_OBS_OFF=1); --trace 1 runs the
// workload untraced and then traced, replays the controller-side calls
// in-process, and reports the per-layer metrics. Any failed check makes the
// command exit 1.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "report.h"
#include "traced.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 15;

bool parse_args(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      args->trace = val == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loopbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const std::optional<WorkloadKind> kind = workload_kind(args.workload);
  if (!kind) {
    std::fprintf(stderr, "loopbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    const RunReport report =
        args.trace ? run_traced(*kind, args.seed, args.seconds, kSetups)
                   : run_untraced(*kind, args.seed, args.seconds, kSetups);
    print_report(args.workload, report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loopbench: %s\n", e.what());
    return 1;
  }
}
