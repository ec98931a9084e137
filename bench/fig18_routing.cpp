// Fig 18: robustness of BATE's scheduling to the tunnel-selection scheme —
// mean achieved availability with KSP-4, edge-disjoint and oblivious-style
// routing across arrival rates 1..4 /min.
//
// Paper's shape: only minor differences; oblivious routing slightly ahead
// (diverse, low-stretch paths).
#include <cstdio>

#include "common.h"

using namespace bench;

int main() {
  const Topology topo = b4();
  struct SchemeRow {
    const char* name;
    RoutingScheme scheme;
  };
  const SchemeRow schemes[] = {{"Oblivious", RoutingScheme::kOblivious},
                               {"Edge-disjoint", RoutingScheme::kEdgeDisjoint},
                               {"KSP-4", RoutingScheme::kKsp}};

  Table table({"rate/min", "Oblivious", "Edge-disjoint", "KSP-4"});
  for (int rate = 1; rate <= 4; ++rate) {
    std::vector<std::string> row{std::to_string(rate)};
    for (const SchemeRow& s : schemes) {
      const auto catalog = TunnelCatalog::build_all_pairs(topo, 4, s.scheme);
      const TrafficScheduler scheduler(topo, catalog,
                                       simulation_scheduler_config());
      const BateScheme bate(scheduler);

      WorkloadConfig wl;
      wl.arrival_rate_per_min = rate;
      wl.mean_duration_min = 10.0;
      wl.horizon_min = 60.0;
      wl.availability_targets = simulation_target_set();
      wl.matrices = generate_traffic_matrices(topo, 10);
      wl.tm_scale_down = 20.0;
      wl.seed = 1200 + static_cast<std::uint64_t>(rate);
      const auto demands = steady_state_snapshot(catalog, wl, 30.0);
      if (demands.empty()) {
        row.push_back("-");
        continue;
      }
      const auto allocs = bate.allocate(demands);
      double mean_avail = 0.0;
      for (std::size_t i = 0; i < demands.size(); ++i) {
        mean_avail +=
            achieved_availability(topo, catalog, demands[i], allocs[i]);
      }
      row.push_back(fmt(mean_avail / demands.size() * 100.0, 2));
    }
    table.add_row(std::move(row));
  }
  std::printf("%s", table.to_string("Fig 18: achieved availability (%) by "
                                    "routing scheme")
                        .c_str());
  std::printf("\nExpected shape: all three close; oblivious slightly "
              "ahead.\n");
  return 0;
}
