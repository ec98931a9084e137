// Bandwidth-availability (BA) demand model (Sec 3.1).
//
// A demand d = (b_d, beta_d, t^s_d, t^e_d) asks for bandwidth b_d — a vector
// over s-d pairs — with availability target beta_d over its life time. The
// pricing fields carry the paper's SLA economics: g_d is the charge for
// serving d, mu_d the refunded fraction when the BA target is violated.
#pragma once

#include <vector>

namespace bate {

using DemandId = int;

/// One SLA refund tier: if achieved availability < `below`, refund
/// `fraction` of the charge (see workload/sla.h for the Azure catalog).
struct RefundTier {
  double below;     // availability threshold, e.g. 0.999
  double fraction;  // refunded fraction of the charge, e.g. 0.10

  friend bool operator==(const RefundTier&, const RefundTier&) = default;
};

/// One component of the demand vector b_d: `mbps` on pair `pair`
/// (an index into the TunnelCatalog's pair list).
struct PairDemand {
  int pair = -1;
  double mbps = 0.0;

  friend bool operator==(const PairDemand&, const PairDemand&) = default;
};

struct Demand {
  DemandId id = -1;
  std::vector<PairDemand> pairs;
  double availability_target = 0.0;  // beta_d, in [0,1]
  double charge = 0.0;               // g_d
  double refund_fraction = 0.0;      // mu_d, in [0,1] (flat model, Sec 3.4)
  /// Tiered refund schedule (the Azure-style SLAs of Sec 5); when
  /// non-empty, per-second accounting refunds by the worst violated tier
  /// instead of the flat mu_d.
  std::vector<RefundTier> refund_tiers;
  double arrival_minute = 0.0;       // t^s_d
  double duration_minutes = 0.0;     // t^e_d - t^s_d

  double end_minute() const { return arrival_minute + duration_minutes; }
  double total_mbps() const {
    double total = 0.0;
    for (const PairDemand& p : pairs) total += p.mbps;
    return total;
  }
  /// Refund owed for an achieved availability: the worst violated tier
  /// when a tier table is present, else the flat mu_d on any violation.
  double refund_for(double achieved_availability) const {
    if (refund_tiers.empty()) {
      return achieved_availability + 1e-12 >= availability_target
                 ? 0.0
                 : refund_fraction;
    }
    double refund = 0.0;
    for (const RefundTier& tier : refund_tiers) {
      if (achieved_availability < tier.below) refund = tier.fraction;
    }
    // The SLA also never refunds when the negotiated target is met.
    if (achieved_availability + 1e-12 >= availability_target) return 0.0;
    return refund;
  }

  /// The admission-ordering key of Algorithm 1: sum_k b^k_d * beta_d.
  double admission_weight() const {
    return total_mbps() * availability_target;
  }

  friend bool operator==(const Demand&, const Demand&) = default;
};

/// Per-demand, per-tunnel bandwidth allocation f^t_d. Indexed as
/// alloc[pair_position][tunnel_index] where pair_position follows
/// Demand::pairs order.
using Allocation = std::vector<std::vector<double>>;

}  // namespace bate
