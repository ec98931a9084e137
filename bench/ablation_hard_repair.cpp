// Ablation (DESIGN.md Sec 5): the two design choices that close the gap
// between the paper's LP relaxation (eq. 4) and the HARD availability
// guarantee BATE promises —
//   * the availability-weighted reliability tie-break in the objective, and
//   * the per-demand hard-repair MILP pass.
// Measures the fraction of demands whose hard availability target holds
// under each combination, plus the bandwidth cost of the repair.
#include <cstdio>

#include "common.h"
#include "core/admission.h"
#include "obs/availability.h"

using namespace bench;

int main() {
  struct Variant {
    const char* name;
    double epsilon;
    bool repair;
  };
  const Variant variants[] = {
      {"plain LP (paper eq.4 only)", 0.0, false},
      {"+ reliability tie-break", 0.01, false},
      {"+ hard repair", 0.0, true},
      {"+ both (BATE default)", 0.01, true},
  };

  for (const char* topo_name : {"testbed6", "B4"}) {
    const Topology topo =
        std::string(topo_name) == "B4" ? b4() : testbed6();
    const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);

    WorkloadConfig wl;
    wl.arrival_rate_per_min = 3.0;
    wl.mean_duration_min = 10.0;
    wl.horizon_min = 60.0;
    wl.availability_targets = simulation_target_set();
    if (std::string(topo_name) == "B4") {
      wl.matrices = generate_traffic_matrices(topo, 10);
      wl.tm_scale_down = 20.0;
    } else {
      wl.bw_min_mbps = 100.0;
      wl.bw_max_mbps = 400.0;
    }
    wl.seed = 1600;
    auto snapshot = steady_state_snapshot(catalog, wl, 30.0);
    if (snapshot.size() > 30) snapshot.resize(30);
    // Keep only a jointly admittable subset (FCFS through BATE admission),
    // so every scheduler variant solves the same feasible instance.
    SchedulerConfig filter_cfg;
    filter_cfg.max_failures = 3;
    const TrafficScheduler filter_sched(topo, catalog, filter_cfg);
    AdmissionController filter(filter_sched, AdmissionStrategy::kBate);
    std::vector<Demand> demands;
    for (const Demand& d : snapshot) {
      if (filter.offer(d).admitted) demands.push_back(d);
    }
    for (std::size_t i = 0; i < demands.size(); ++i) {
      demands[i].id = static_cast<DemandId>(i);
    }

    Table table({"variant", "hard_satisfied_pct", "allocated_mbps"});
    for (const Variant& v : variants) {
      SchedulerConfig cfg;
      cfg.max_failures = 3;
      cfg.reliability_epsilon = v.epsilon;
      cfg.hard_repair = v.repair;
      const TrafficScheduler scheduler(topo, catalog, cfg);
      const auto r = scheduler.schedule(demands);
      if (!r.feasible) {
        table.add_row({v.name, "infeasible", "-"});
        continue;
      }
      int satisfied = 0;
      for (std::size_t i = 0; i < demands.size(); ++i) {
        satisfied += obs::availability_target_met(
                         achieved_availability(topo, catalog, demands[i],
                                               r.alloc[i]),
                         demands[i].availability_target)
                         ? 1
                         : 0;
      }
      table.add_row({v.name,
                     fmt(100.0 * satisfied /
                             std::max<std::size_t>(1, demands.size()),
                         1),
                     fmt(r.total_allocated_mbps, 0)});
    }
    std::printf("%s\n",
                table
                    .to_string(std::string("Ablation on ") + topo_name +
                               " (" + std::to_string(demands.size()) +
                               " demands)")
                    .c_str());
  }
  std::printf("Expected: each mechanism raises hard satisfaction; combined "
              "they reach ~100%% at a small bandwidth premium.\n");
  return 0;
}
