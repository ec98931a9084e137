#include "sim/engine.h"

#include <algorithm>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/bate_scheme.h"
#include "core/control_plane.h"
#include "obs/availability.h"
#include "util/check.h"

namespace bate {

std::vector<std::vector<double>> deliver_second(
    const Topology& topo, const TunnelCatalog& catalog,
    std::span<const Demand> demands, std::span<const Allocation> enforced,
    std::span<const LinkId> failed, RescalePolicy rescale,
    double* offered_out, double* delivered_out) {
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
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
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
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
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
  std::vector<std::vector<double>> delivered(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
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

SimMetrics run_testbed_sim(const TrafficScheduler& scheduler,
                           const SimPolicy& policy,
                           std::span<const Demand> demands,
                           const FailureTimeline& timeline,
                           const TestbedSimConfig& cfg) {
  const Topology& topo = scheduler.topology();
  const TunnelCatalog& catalog = policy.te->tunnel_catalog();

  SimMetrics metrics;
  metrics.outcomes.resize(demands.size());
  std::unordered_map<DemandId, std::size_t> outcome_of;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    auto& o = metrics.outcomes[i];
    o.id = demands[i].id;
    o.availability_target = demands[i].availability_target;
    o.charge = demands[i].charge;
    o.refund_fraction = demands[i].refund_fraction;
    o.refund_tiers = demands[i].refund_tiers;
    outcome_of[demands[i].id] = i;
  }

  // A policy with an admission strategy runs the controller's event
  // sequence; an admit-all one keeps its own active set and allocations.
  std::optional<ControlPlane> cp;
  if (policy.admission.has_value()) {
    BATE_ASSERT_MSG(&catalog == &scheduler.catalog(),
                    "sim: admission runs on a different tunnel catalog");
    cp.emplace(scheduler, *policy.admission, true, policy.optimal_options);
  }
  const bool bate_allocates =
      dynamic_cast<const BateScheme*>(policy.te) != nullptr;
  std::vector<Demand> active;
  std::vector<Allocation> allocs;
  BackupPlanner planner(topo, catalog);

  const int total_minutes = static_cast<int>(cfg.horizon_min);
  std::size_t next_arrival = 0;
  for (int minute = 0; minute < total_minutes; ++minute) {
    const std::size_t first = next_arrival;
    while (next_arrival < demands.size() &&
           demands[next_arrival].arrival_minute < minute + 1) {
      metrics.outcomes[next_arrival].offered = true;
      metrics.outcomes[next_arrival].admitted = !cp;  // admit-all
      ++next_arrival;
    }
    const std::span<const Demand> arrivals =
        demands.subspan(first, next_arrival - first);
    const auto departs = [&](const Demand& d) {
      return d.end_minute() <= minute;
    };

    if (cp) {
      // A baseline hands the class its own allocation after every change,
      // so its next verdicts see its own residual.
      const auto reallocate = [&] {
        if (!bate_allocates) {
          cp->set_primaries(policy.te->allocate(cp->admitted()));
        }
      };
      std::vector<DemandId> departed;
      for (const Demand& d : cp->admitted()) {
        if (departs(d)) departed.push_back(d.id);
      }
      if (!cp->withdraw(departed).empty()) reallocate();
      const BatchAdmissionOutcome out = cp->admit(arrivals);
      bool admitted_any = false;
      for (std::size_t i = 0; i < out.outcomes.size(); ++i) {
        metrics.outcomes[first + i].admitted = out.outcomes[i].admitted;
        metrics.admission_delay_s.add(out.outcomes[i].decision_seconds);
        admitted_any = admitted_any || out.outcomes[i].admitted;
      }
      if (admitted_any) reallocate();
    } else if (std::erase_if(active, departs) > 0 || !arrivals.empty()) {
      active.insert(active.end(), arrivals.begin(), arrivals.end());
      allocs = policy.te->allocate(active);
    }

    // Per-second data plane. Under the backup policy the ingress offers
    // what the controller's brokers would enforce; otherwise it keeps the
    // primaries.
    const std::vector<Demand>& ds = cp ? cp->admitted() : active;
    const std::vector<Allocation>& primaries = cp ? cp->primaries() : allocs;
    for (int s = minute * 60; s < (minute + 1) * 60; ++s) {
      if (s >= timeline.seconds()) break;
      const auto failed = timeline.failed_at(s);
      // The down set follows the timeline; a report that changes nothing is
      // a no-op, so only the links that changed since the last second count.
      for (LinkId e = 0; cp && e < topo.link_count(); ++e) {
        cp->link(e, !std::binary_search(failed.begin(), failed.end(), e));
      }
      std::span<const Allocation> enforced(primaries);
      if (policy.rescale == RescalePolicy::kBackup) {
        enforced = cp ? cp->enforced() : planner.enforce(ds, primaries, failed);
      }
      double offered = 0.0;
      double delivered_total = 0.0;
      const auto delivered =
          deliver_second(topo, catalog, ds, enforced, failed, policy.rescale,
                         &offered, &delivered_total);
      if (offered > 1e-9) {
        metrics.per_second_loss_ratio.push_back(
            std::max(0.0, 1.0 - delivered_total / offered));
      }
      for (std::size_t i = 0; i < ds.size(); ++i) {
        const Demand& d = ds[i];
        auto& o = metrics.outcomes[outcome_of.at(d.id)];
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
