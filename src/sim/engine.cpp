#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <span>

#include "core/pricing.h"
#include "obs/availability.h"

namespace bate {

namespace {

struct ActiveDemand {
  Demand demand;
  Allocation alloc;
  std::size_t outcome_index;
};

/// Delivered bandwidth per (active demand, pair) for one second, given the
/// failed link set, after the rescale policy and congestion scaling.
/// `enforced` is the table the ingress offers, index-aligned with `active`.
std::vector<std::vector<double>> deliver_second(
    const Topology& topo, const TunnelCatalog& catalog,
    const std::vector<ActiveDemand>& active,
    std::span<const Allocation> enforced, const std::vector<LinkId>& failed,
    RescalePolicy rescale, double* offered_out, double* delivered_out) {
  auto link_down = [&](LinkId e) {
    return std::binary_search(failed.begin(), failed.end(), e);
  };
  auto tunnel_up = [&](const Tunnel& t) {
    for (LinkId e : t.links) {
      if (link_down(e)) return false;
    }
    return true;
  };

  // Effective offered rate per (demand, pair, tunnel).
  std::vector<Allocation> offered(enforced.begin(), enforced.end());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Demand& d = active[i].demand;
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      double lost = 0.0;
      double surviving_total = 0.0;
      int surviving_count = 0;
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (tunnel_up(tunnels[t])) {
          surviving_total += offered[i][p][t];
          ++surviving_count;
        } else {
          lost += offered[i][p][t];
          offered[i][p][t] = 0.0;
        }
      }
      if (lost > 0.0 && rescale == RescalePolicy::kProportional &&
          surviving_count > 0) {
        // Ingress rescaling: push the lost traffic onto surviving tunnels,
        // proportionally to their current share (evenly when none carries
        // traffic). Congestion, if any, is charged below.
        for (std::size_t t = 0; t < tunnels.size(); ++t) {
          if (!tunnel_up(tunnels[t])) continue;
          const double share =
              surviving_total > 1e-12
                  ? offered[i][p][t] / surviving_total
                  : 1.0 / static_cast<double>(surviving_count);
          offered[i][p][t] += lost * share;
        }
      }
    }
  }

  // Link loads and congestion scale factors.
  std::vector<double> load(static_cast<std::size_t>(topo.link_count()), 0.0);
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Demand& d = active[i].demand;
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (offered[i][p][t] <= 0.0) continue;
        for (LinkId e : tunnels[t].links) {
          load[static_cast<std::size_t>(e)] += offered[i][p][t];
        }
      }
    }
  }
  std::vector<double> scale(load.size(), 1.0);
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    const auto ei = static_cast<std::size_t>(e);
    if (load[ei] > topo.link(e).capacity + 1e-9) {
      scale[ei] = topo.link(e).capacity / load[ei];
    }
  }

  double offered_total = 0.0;
  double delivered_total = 0.0;
  std::vector<std::vector<double>> delivered(active.size());
  for (std::size_t i = 0; i < active.size(); ++i) {
    const Demand& d = active[i].demand;
    delivered[i].assign(d.pairs.size(), 0.0);
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        const double f = offered[i][p][t];
        if (f <= 0.0) continue;
        double s = 1.0;
        for (LinkId e : tunnels[t].links) {
          s = std::min(s, scale[static_cast<std::size_t>(e)]);
        }
        offered_total += f;
        delivered_total += f * s;
        delivered[i][p] += f * s;
      }
    }
  }
  if (offered_out != nullptr) *offered_out = offered_total;
  if (delivered_out != nullptr) *delivered_out = delivered_total;
  return delivered;
}

}  // namespace

SimMetrics run_testbed_sim(const TrafficScheduler& scheduler,
                           const SimPolicy& policy,
                           std::span<const Demand> demands,
                           const FailureTimeline& timeline,
                           const TestbedSimConfig& cfg) {
  const Topology& topo = scheduler.topology();
  const TunnelCatalog& catalog = policy.te->tunnel_catalog();

  SimMetrics metrics;
  metrics.outcomes.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    auto& o = metrics.outcomes[i];
    o.id = demands[i].id;
    o.availability_target = demands[i].availability_target;
    o.charge = demands[i].charge;
    o.refund_fraction = demands[i].refund_fraction;
    o.refund_tiers = demands[i].refund_tiers;
  }

  std::vector<ActiveDemand> active;
  BackupPlanner planner(topo, catalog);
  const int total_minutes = static_cast<int>(cfg.horizon_min);
  std::size_t next_arrival = 0;

  auto active_demands = [&]() {
    std::vector<Demand> ds;
    ds.reserve(active.size());
    for (const auto& a : active) ds.push_back(a.demand);
    return ds;
  };
  auto active_allocations = [&]() {
    std::vector<Allocation> allocs;
    allocs.reserve(active.size());
    for (const auto& a : active) allocs.push_back(a.alloc);
    return allocs;
  };

  auto reallocate = [&]() {
    const auto ds = active_demands();
    const auto allocs = policy.te->allocate(ds);
    for (std::size_t i = 0; i < active.size(); ++i) {
      active[i].alloc = allocs[i];
    }
    if (policy.rescale == RescalePolicy::kBackup) planner.precompute(ds, allocs);
  };

  double next_schedule = 0.0;
  for (int minute = 0; minute < total_minutes; ++minute) {
    // Departures.
    bool changed = false;
    for (std::size_t i = active.size(); i-- > 0;) {
      if (active[i].demand.end_minute() <= minute) {
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
        changed = true;
      }
    }

    // Arrivals within this minute, FCFS.
    while (next_arrival < demands.size() &&
           demands[next_arrival].arrival_minute < minute + 1) {
      const Demand& d = demands[next_arrival];
      auto& outcome = metrics.outcomes[next_arrival];
      outcome.offered = true;

      const auto start = std::chrono::steady_clock::now();
      bool admit = true;
      if (policy.admission.has_value()) {
        // Residual capacity under current allocations.
        std::vector<Demand> ds = active_demands();
        const auto usage =
            link_usage(topo, catalog, ds, active_allocations());
        std::vector<double> residual(usage.size());
        for (LinkId e = 0; e < topo.link_count(); ++e) {
          residual[static_cast<std::size_t>(e)] = std::max(
              0.0, topo.link(e).capacity - usage[static_cast<std::size_t>(e)]);
        }
        auto scratch = residual;
        const bool fixed_ok =
            greedy_allocate_guaranteed(scheduler, d, scratch).has_value();
        switch (*policy.admission) {
          case AdmissionStrategy::kFixed:
            admit = fixed_ok;
            break;
          case AdmissionStrategy::kBate: {
            admit = fixed_ok;
            if (!admit) {
              ds.push_back(d);
              admit = admission_conjecture(scheduler, ds);
            }
            break;
          }
          case AdmissionStrategy::kOptimal: {
            ds.push_back(d);
            admit = optimal_admission_check(scheduler, ds,
                                            policy.optimal_options);
            break;
          }
        }
      }
      metrics.admission_delay_s.add(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count());

      outcome.admitted = admit;
      if (admit) {
        // First-time allocation: greedy from residual; the next scheduling
        // round optimizes it.
        const auto usage = link_usage(topo, catalog, active_demands(),
                                      active_allocations());
        std::vector<double> residual(usage.size());
        for (LinkId e = 0; e < topo.link_count(); ++e) {
          residual[static_cast<std::size_t>(e)] = std::max(
              0.0, topo.link(e).capacity - usage[static_cast<std::size_t>(e)]);
        }
        Allocation first =
            greedy_allocate_partial(topo, catalog, d, residual);
        active.push_back({d, std::move(first), next_arrival});
        changed = true;
      }
      ++next_arrival;
    }

    if (changed || minute >= next_schedule) {
      reallocate();
      while (next_schedule <= minute) next_schedule += cfg.schedule_period_min;
    }

    // Per-second data plane. Under the backup policy the ingress offers
    // what the controller's brokers would enforce (BackupPlanner::enforce);
    // otherwise it keeps the primaries.
    const std::vector<Demand> ds = active_demands();
    const std::vector<Allocation> primaries = active_allocations();
    for (int s = minute * 60; s < (minute + 1) * 60; ++s) {
      if (s >= timeline.seconds()) break;
      const auto failed = timeline.failed_at(s);
      const std::span<const Allocation> enforced =
          policy.rescale == RescalePolicy::kBackup
              ? planner.enforce(ds, primaries, failed)
              : std::span<const Allocation>(primaries);
      double offered = 0.0;
      double delivered_total = 0.0;
      const auto delivered =
          deliver_second(topo, catalog, active, enforced, failed,
                         policy.rescale, &offered, &delivered_total);
      if (offered > 1e-9) {
        metrics.per_second_loss_ratio.push_back(
            std::max(0.0, 1.0 - delivered_total / offered));
      }
      for (std::size_t i = 0; i < active.size(); ++i) {
        const Demand& d = active[i].demand;
        auto& o = metrics.outcomes[active[i].outcome_index];
        ++o.active_seconds;
        bool ok = true;
        double worst_ratio = kInfinity;
        for (std::size_t p = 0; p < d.pairs.size(); ++p) {
          const double ratio = delivered[i][p] / d.pairs[p].mbps;
          worst_ratio = std::min(worst_ratio, ratio);
          // Paper: a downward deviation of more than 1% breaks the second
          // (shared floor with the live ledger, obs/availability.h).
          if (!obs::interval_satisfied(ratio)) ok = false;
        }
        if (ok) ++o.satisfied_seconds;
        if (static_cast<int>(o.delivered_ratio_samples.size()) <
            cfg.ratio_samples_per_demand) {
          o.delivered_ratio_samples.push_back(std::min(worst_ratio, 1.0));
        }
      }
    }
  }

  metrics.link_failure_counts = timeline.failure_counts();
  metrics.failure_intervals_s = timeline.failure_intervals();
  return metrics;
}

}  // namespace bate
