// Post-processing evaluation harness (Sec 5.2 methodology, following
// TEAVAR): a TE scheme allocates a demand snapshot once; satisfaction is
// the probability mass of failure scenarios in which the demand's full
// bandwidth survives (computed analytically over tunnel patterns), and
// post-failure profit is the expectation over single-link failure scenarios
// after recovery/rescaling.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "baselines/te.h"
#include "core/admission.h"
#include "core/scheduling.h"
#include "sim/engine.h"
#include "util/stats.h"

namespace bate {

struct TeEvaluation {
  std::string name;
  int demand_count = 0;
  /// Demands whose allocation meets their target under the exact failure
  /// model (achieved_availability, within obs::kAvailabilityTol).
  int satisfied_count = 0;
  double satisfaction_fraction = 1.0;
  double mean_link_utilization = 0.0;
  /// Profit kept with no link down, relative to the full profit of every
  /// demand: what the allocation itself falls short by.
  double no_failure_profit_fraction = 1.0;
  /// Expected profit conditioned on one link failure, after the policy's
  /// failure reaction (Fig 15), relative to the full profit of every demand.
  double post_failure_profit_fraction = 1.0;
};

/// Allocates `demands` with the scheme and scores it. The no-failure second
/// and each single-link failure are scored through the simulator's data
/// plane (deliver_second): under a failure with `use_recovery` the ingress
/// offers BackupPlanner::enforce, otherwise the primaries rescaled
/// proportionally.
TeEvaluation evaluate_te(const Topology& topo, const TeScheme& te,
                         std::span<const Demand> demands, bool use_recovery);

/// Admission-control simulation (Fig 12): demands offered FCFS with
/// departures; periodic rescheduling every `reschedule_period_min`.
struct AdmissionSimResult {
  int offered = 0;
  int admitted = 0;
  Summary decision_seconds;
  /// Mean link utilization sampled after each arrival.
  Summary link_utilization;
  /// Per-offer admit decision, index-aligned with the demand sequence.
  std::vector<char> decisions;

  double rejection_ratio() const {
    return offered == 0 ? 0.0
                        : 1.0 - static_cast<double>(admitted) / offered;
  }
};

AdmissionSimResult run_admission_sim(const TrafficScheduler& scheduler,
                                     AdmissionStrategy strategy,
                                     std::span<const Demand> demands,
                                     double reschedule_period_min = 10.0,
                                     const BranchBoundOptions&
                                         optimal_options = {});

/// Demand snapshot in steady state: the set active at `at_minute` from a
/// generated sequence (helper for the post-processing experiments).
std::vector<Demand> steady_state_snapshot(const TunnelCatalog& catalog,
                                          const WorkloadConfig& cfg,
                                          double at_minute);

}  // namespace bate
