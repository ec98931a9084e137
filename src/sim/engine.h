// Testbed-style discrete simulation (Sec 5.1).
//
// Reproduces the paper's testbed procedure in software: each minute's
// departures leave and its arrivals are offered as one batch; every second,
// links fail Bernoulli(x_e) and repair after a fixed time
// (scenario/sampler.h); the data plane delivers what the surviving,
// uncongested tunnels carry; per-second satisfaction, loss and profit are
// accounted exactly as the paper measures them (<=1% downward deviation
// counts as satisfied).
//
// A policy with an admission strategy runs one ControlPlane
// (core/control_plane.h), the live controller's event sequence: departures
// are one withdraw, arrivals one admit, the links that change between
// seconds are link reports, and the kBackup table is enforced(). BATE's own
// scheme takes the class's allocations; a baseline scheme hands it
// te->allocate of the admitted set after every change (set_primaries), so
// its next verdicts see its own residual. An admit-all policy calls
// te->allocate whenever its active set changes, and its kBackup table is
// BackupPlanner::enforce.
//
// The same pre-generated FailureTimeline can be passed to several policies
// so competing TE schemes face identical failures.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baselines/te.h"
#include "core/admission.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "scenario/sampler.h"
#include "sim/metrics.h"
#include "workload/demand_gen.h"

namespace bate {

/// What happens to a demand's traffic when one of its tunnels dies.
enum class RescalePolicy {
  kNone,          // failed tunnels simply lose their traffic (BATE-TS)
  kProportional,  // traffic rescales onto surviving tunnels (TEAVAR/FFC...)
  kBackup,        // the ingress offers BackupPlanner::enforce (BATE, Sec 3.4)
};

struct SimPolicy {
  std::string name;
  /// Admission strategy; nullopt admits everything (pure TE baselines).
  std::optional<AdmissionStrategy> admission;
  /// Allocator invoked on the active demand set whenever it changes.
  const TeScheme* te = nullptr;
  RescalePolicy rescale = RescalePolicy::kNone;
  /// Branch-and-bound budget applied when admission == kOptimal.
  BranchBoundOptions optimal_options{};
};

struct TestbedSimConfig {
  double horizon_min = 100.0;
  /// Cap on per-demand delivered-ratio samples kept for CDFs.
  int ratio_samples_per_demand = 50;
};

/// Delivered bandwidth per (demand, pair) for one second with the sorted
/// `failed` links down, when the ingress offers `enforced` (index-aligned
/// with `demands`): after the rescale policy and congestion scaling. The
/// optional outputs receive the offered and delivered totals.
std::vector<std::vector<double>> deliver_second(
    const Topology& topo, const TunnelCatalog& catalog,
    std::span<const Demand> demands, std::span<const Allocation> enforced,
    std::span<const LinkId> failed, RescalePolicy rescale,
    double* offered_out = nullptr, double* delivered_out = nullptr);

/// Runs one simulation of `policy` over the demand sequence and failure
/// timeline (whose length must cover the horizon). The scheduler argument
/// provides the availability model used by admission (with an admission
/// strategy, its catalog must be the TE scheme's).
SimMetrics run_testbed_sim(const TrafficScheduler& scheduler,
                           const SimPolicy& policy,
                           std::span<const Demand> demands,
                           const FailureTimeline& timeline,
                           const TestbedSimConfig& cfg = {});

}  // namespace bate
