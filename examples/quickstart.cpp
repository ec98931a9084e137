// Quickstart: the BATE pipeline end to end on the paper's testbed topology.
//
//   1. Build a WAN topology and pre-compute tunnels (offline routing).
//   2. Create the traffic scheduler (pruned failure model, y = 2).
//   3. Offer BA demands to the admission controller.
//   4. Inspect the scheduled allocations and their hard availability.
//   5. Fail a link and watch the greedy recovery protect profit.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/admission.h"
#include "core/pricing.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "topology/catalog.h"
#include "util/table.h"

using namespace bate;

int main() {
  // 1. Topology + offline routing (4-shortest-path tunnels, as in Sec 5.1).
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  std::printf("Topology %s: %d DCs, %d directed links, %d tunnels\n",
              topo.name().c_str(), topo.node_count(), topo.link_count(),
              catalog.total_tunnels());

  // 2. Scheduler with the paper's pruning (at most 2 concurrent failures).
  SchedulerConfig cfg;
  cfg.max_failures = 2;
  const TrafficScheduler scheduler(topo, catalog, cfg);

  // 3. Admission control (BATE strategy: fixed check, then Algorithm 1).
  AdmissionController admission(scheduler, AdmissionStrategy::kBate);

  auto offer = [&](DemandId id, const char* from, const char* to, double mbps,
                   double beta) {
    Demand d;
    d.id = id;
    SdPair pair;
    for (NodeId n = 0; n < topo.node_count(); ++n) {
      if (topo.node_label(n) == from) pair.src = n;
      if (topo.node_label(n) == to) pair.dst = n;
    }
    d.pairs = {{catalog.pair_index(pair), mbps}};
    d.availability_target = beta;
    d.charge = mbps;          // unit price per Mbps (Sec 5.1)
    d.refund_fraction = 0.25;  // Azure-style refund tier
    const AdmissionOutcome outcome = admission.offer(d);
    std::printf("demand %d: %s->%s %.0f Mbps @ %.4f%%  ->  %s%s\n", id, from,
                to, mbps, beta * 100.0,
                outcome.admitted ? "ADMITTED" : "REJECTED",
                outcome.via_conjecture ? " (via Algorithm-1 conjecture)" : "");
    return outcome.admitted;
  };

  offer(1, "DC1", "DC3", 400.0, 0.9995);  // photo service class (Table 1)
  offer(2, "DC1", "DC4", 500.0, 0.999);   // ads database replication
  offer(3, "DC1", "DC5", 800.0, 0.95);    // bulk-ish, low target
  offer(4, "DC2", "DC6", 600.0, 0.99);    // search index copies
  offer(5, "DC1", "DC3", 5000.0, 0.99);   // oversized: should be rejected

  // 4. Periodic traffic scheduling (Sec 3.3) and the resulting allocations.
  admission.reschedule();
  Table table({"demand", "tunnel", "Mbps", "hard availability", "target"});
  const auto& demands = admission.admitted();
  const auto& allocs = admission.allocations();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const double avail =
        achieved_availability(topo, catalog, demands[i], allocs[i]);
    const auto& tunnels = catalog.tunnels(demands[i].pairs[0].pair);
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      if (allocs[i][0][t] <= 0.5) continue;
      table.add_row({std::to_string(demands[i].id),
                     tunnels[t].to_string(topo), fmt(allocs[i][0][t], 0),
                     fmt(avail * 100.0, 4) + "%",
                     fmt(demands[i].availability_target * 100.0, 2) + "%"});
    }
  }
  std::printf("\n%s", table.to_string("Scheduled allocations").c_str());

  // 5. Fail the testbed's flakiest link (L4, 1%) and recover (Sec 3.4).
  const LinkId l4 = testbed_link(topo, "L4");
  std::printf("\nFailing link %s ...\n", topo.link(l4).name.c_str());
  const LinkId failed[] = {l4};
  const RecoveryResult rec =
      recover_greedy(topo, catalog, demands, failed);
  const double before = full_profit(demands);
  std::printf("profit without failure: %.0f; after greedy recovery: %.0f "
              "(%.1f%% retained)\n",
              before, rec.profit, 100.0 * rec.profit / before);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (!rec.full_profit[i]) {
      std::printf("  demand %d violated its BA target -> refunding %.0f%%\n",
                  demands[i].id, demands[i].refund_fraction * 100.0);
    }
  }
  return 0;
}
