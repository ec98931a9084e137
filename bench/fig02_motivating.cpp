// Fig 2: the motivating example. Reproduces the allocations of FFC (2b),
// TEAVAR (2c) and BATE (2d) on the 4-DC toy WAN and checks which user
// availability targets each scheme meets.
//
// Paper's numbers: FFC grants 3.34G/6.66G split evenly (neither demand
// whole); TEAVAR grants both demands fully at ~95.9% availability
// (violating user1's 99%); BATE serves user1 on the reliable path
// (99.8999%) and user2 across both (95.999904%).
#include <cstdio>

#include "baselines/ffc.h"
#include "baselines/teavar.h"
#include "core/bate_scheme.h"
#include "core/scheduling.h"
#include "obs/availability.h"
#include "topology/catalog.h"
#include "util/table.h"

using namespace bate;

int main() {
  const Topology topo = toy4();
  const auto catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{0, 3}}, 2);

  Demand user1;
  user1.id = 1;
  user1.pairs = {{0, 6000.0}};
  user1.availability_target = 0.99;
  Demand user2;
  user2.id = 2;
  user2.pairs = {{0, 12000.0}};
  user2.availability_target = 0.90;
  const std::vector<Demand> demands = {user1, user2};

  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const BateScheme bate(scheduler);
  const FfcScheme ffc(topo, catalog, 1);
  const TeavarScheme teavar(topo, catalog, 0.90);

  Table table({"scheme", "user", "granted_Gbps", "availability_pct",
               "target_pct", "target_met"});
  int met_by_bate = 0;
  for (const TeScheme* scheme :
       std::vector<const TeScheme*>{&ffc, &teavar, &bate}) {
    const auto allocs = scheme->allocate(demands);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      double total = 0.0;
      for (double f : allocs[i][0]) total += f;
      const double avail =
          achieved_availability(topo, catalog, demands[i], allocs[i]);
      const bool met = obs::availability_target_met(
          avail, demands[i].availability_target);
      if (scheme == &bate && met) ++met_by_bate;
      table.add_row({scheme->name(), "user" + std::to_string(demands[i].id),
                     fmt(total / 1000.0, 2), fmt(avail * 100.0, 4),
                     fmt(demands[i].availability_target * 100.0, 2),
                     met ? "yes" : "no"});
    }
  }
  std::printf("%s", table.to_string("Fig 2: toy-WAN allocations").c_str());
  std::printf("\nBATE satisfies %d/2 demands (paper: 2/2); FFC and TEAVAR "
              "each violate at least one (paper: same)\n",
              met_by_bate);
  return 0;
}
