#include "sim/experiment.h"

#include <algorithm>

#include "core/pricing.h"
#include "core/recovery.h"
#include "obs/availability.h"

namespace bate {

TeEvaluation evaluate_te(const Topology& topo, const TeScheme& te,
                         std::span<const Demand> demands, bool use_recovery) {
  TeEvaluation eval;
  eval.name = te.name();
  eval.demand_count = static_cast<int>(demands.size());
  if (demands.empty()) return eval;

  const TunnelCatalog& catalog = te.tunnel_catalog();
  const auto allocs = te.allocate(demands);

  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (obs::availability_target_met(
            achieved_availability(topo, catalog, demands[i], allocs[i]),
            demands[i].availability_target)) {
      ++eval.satisfied_count;
    }
  }
  eval.satisfaction_fraction =
      static_cast<double>(eval.satisfied_count) / eval.demand_count;

  const auto usage = link_usage(topo, catalog, demands, allocs);
  double util = 0.0;
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    util += usage[static_cast<std::size_t>(e)] / topo.link(e).capacity;
  }
  eval.mean_link_utilization = util / std::max(1, topo.link_count());

  // Expected post-failure profit over single-link failure scenarios,
  // weighted by failure probability (Fig 15). A loaded link's failure is
  // scored the way run_testbed_sim scores one second with that link down:
  // the ingress offers BackupPlanner::enforce under recovery and the
  // primaries, rescaled proportionally, otherwise; a demand keeps full
  // profit when every pair's delivered ratio is interval_satisfied. The
  // same score with nothing down is the no-failure profit.
  const double baseline = full_profit(demands);
  const RescalePolicy rescale =
      use_recovery ? RescalePolicy::kBackup : RescalePolicy::kProportional;
  const auto kept_profit = [&](std::span<const Allocation> table,
                               std::span<const LinkId> failed) {
    const auto delivered = deliver_second(topo, catalog, demands, table,
                                          failed, rescale);
    std::vector<char> ok(demands.size(), 1);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      for (std::size_t p = 0; p < demands[i].pairs.size(); ++p) {
        if (!obs::interval_satisfied(delivered[i][p] /
                                     demands[i].pairs[p].mbps)) {
          ok[i] = 0;
        }
      }
    }
    return total_profit(demands, ok);
  };
  const double no_failure_profit = kept_profit(allocs, {});
  if (baseline > 0.0) {
    eval.no_failure_profit_fraction = no_failure_profit / baseline;
  }
  BackupPlanner planner(topo, catalog);
  double weighted_profit = 0.0;
  double weight = 0.0;
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    const double w = topo.link(e).failure_prob;
    if (w <= 0.0) continue;
    if (usage[static_cast<std::size_t>(e)] <= 1e-9) {
      // No traffic crosses the link: the second is the no-failure one.
      weighted_profit += w * no_failure_profit;
      weight += w;
      continue;
    }
    const LinkId failed[] = {e};
    const std::span<const Allocation> table =
        use_recovery ? planner.enforce(demands, allocs, failed)
                     : std::span<const Allocation>(allocs);
    weighted_profit += w * kept_profit(table, failed);
    weight += w;
  }
  eval.post_failure_profit_fraction =
      (weight <= 0.0 || baseline <= 0.0)
          ? 1.0
          : (weighted_profit / weight) / baseline;
  return eval;
}

AdmissionSimResult run_admission_sim(const TrafficScheduler& scheduler,
                                     AdmissionStrategy strategy,
                                     std::span<const Demand> demands,
                                     double reschedule_period_min,
                                     const BranchBoundOptions&
                                         optimal_options) {
  AdmissionSimResult result;
  AdmissionController controller(scheduler, strategy);
  controller.set_optimal_options(optimal_options);
  const Topology& topo = scheduler.topology();

  double next_reschedule = reschedule_period_min;
  for (const Demand& d : demands) {
    // Departures before this arrival.
    for (const Demand& a : std::vector<Demand>(controller.admitted())) {
      if (a.end_minute() <= d.arrival_minute) controller.remove(a.id);
    }
    if (d.arrival_minute >= next_reschedule) {
      // The paper's Fixed baseline keeps admitted allocations frozen; only
      // BATE and OPT run the periodic traffic scheduling (Sec 3.3).
      if (strategy != AdmissionStrategy::kFixed) controller.reschedule();
      while (next_reschedule <= d.arrival_minute) {
        next_reschedule += reschedule_period_min;
      }
    }
    const AdmissionOutcome outcome = controller.offer(d);
    ++result.offered;
    result.admitted += outcome.admitted ? 1 : 0;
    result.decisions.push_back(outcome.admitted ? 1 : 0);
    result.decision_seconds.add(outcome.decision_seconds);

    const auto residual = controller.residual_capacity();
    double util = 0.0;
    for (LinkId e = 0; e < topo.link_count(); ++e) {
      util += 1.0 - residual[static_cast<std::size_t>(e)] /
                        topo.link(e).capacity;
    }
    result.link_utilization.add(util / std::max(1, topo.link_count()));
  }
  return result;
}

std::vector<Demand> steady_state_snapshot(const TunnelCatalog& catalog,
                                          const WorkloadConfig& cfg,
                                          double at_minute) {
  const auto all = generate_demands(catalog, cfg);
  auto snapshot = active_at(all, at_minute);
  // Reassign dense ids for downstream indexing.
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    snapshot[i].id = static_cast<DemandId>(i);
  }
  return snapshot;
}

}  // namespace bate
