// bate_plan — command-line BA planner.
//
// Reads a topology file (topology/io.h format) and a demand file
// (workload/io.h format), admits the demands as one batch through the
// controller's event sequence (core/control_plane.h: BATE admission and a
// scheduling round), and prints the plan: per-demand tunnel rates, hard
// availability vs target, and the per-link backup coverage, which it
// precomputes over the admitted set (BackupPlanner::precompute; the live
// controller plans a failure only when it occurs). Exit code 0 when every
// offered demand was admitted, 2 otherwise.
//
// Usage:
//   bate_plan <topology-file> <demand-file> [tunnels-per-pair] [max-failures]
//   bate_plan --demo            # runs on the built-in testbed example
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/control_plane.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "topology/catalog.h"
#include "topology/io.h"
#include "util/table.h"
#include "workload/io.h"
#include "workload/sla.h"

using namespace bate;

namespace {

int plan(const Topology& topo, const std::vector<Demand>& demands,
         const TunnelCatalog& catalog, int max_failures) {
  SchedulerConfig cfg;
  cfg.max_failures = max_failures;
  const TrafficScheduler scheduler(topo, catalog, cfg);
  ControlPlane control(scheduler, AdmissionStrategy::kBate);
  const BatchAdmissionOutcome outcome = control.admit(demands);

  int rejected = 0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (outcome.outcomes[i].admitted) continue;
    const Demand& d = demands[i];
    ++rejected;
    std::printf("REJECTED demand %d (%.0f Mbps @ %.4f%%): not guaranteeable "
                "with the current plan\n",
                d.id, d.total_mbps(), d.availability_target * 100.0);
  }

  Table table({"demand", "tunnel", "Mbps", "hard_availability", "target"});
  const auto& admitted = control.admitted();
  const auto& allocs = control.primaries();
  for (std::size_t i = 0; i < admitted.size(); ++i) {
    const double avail =
        achieved_availability(topo, catalog, admitted[i], allocs[i]);
    for (std::size_t p = 0; p < admitted[i].pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(admitted[i].pairs[p].pair);
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (allocs[i][p][t] <= 0.5) continue;
        table.add_row({std::to_string(admitted[i].id),
                       tunnels[t].to_string(topo), fmt(allocs[i][p][t], 0),
                       fmt(avail * 100.0, 4) + "%",
                       fmt(admitted[i].availability_target * 100.0, 2) + "%"});
      }
    }
  }
  std::printf("\n%s", table.to_string("BATE plan").c_str());

  BackupPlanner backup(topo, catalog);
  backup.precompute(admitted, allocs);
  std::printf("\n%zu backup plans pre-computed (one per loaded link; "
              "concurrent failures are planned when they occur)\n",
              backup.plan_count());
  std::printf("%d/%zu demands admitted\n",
              static_cast<int>(demands.size()) - rejected, demands.size());
  return rejected == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) {
      const Topology topo = testbed6();
      const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
      const std::string text =
          "demand 1 DC1 DC3 400 0.9995 refund=0.25\n"
          "demand 2 DC1 DC4 500 0.999  refund=0.10\n"
          "demand 3 DC1 DC5 800 0.95   refund=0.10\n"
          "demand 4 DC2 DC6 600 0.99   refund=0.25\n";
      const auto demands = demands_from_text(topo, catalog, text);
      return plan(topo, demands, catalog, 2);
    }
    if (argc < 3) {
      std::fprintf(stderr,
                   "usage: %s <topology-file> <demand-file> "
                   "[tunnels-per-pair] [max-failures]\n       %s --demo\n",
                   argv[0], argv[0]);
      return 1;
    }
    const Topology topo = load_topology(argv[1]);
    const int tunnels_per_pair = argc > 3 ? std::atoi(argv[3]) : 4;
    const int max_failures = argc > 4 ? std::atoi(argv[4]) : 2;
    const auto catalog = TunnelCatalog::build_all_pairs(topo, tunnels_per_pair);
    const auto demands = load_demands(topo, catalog, argv[2]);
    return plan(topo, demands, catalog, max_failures);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
