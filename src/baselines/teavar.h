// TEAVAR — availability-aware TE via Conditional Value at Risk (Bogle et
// al., SIGCOMM'19), the paper's risk-aware but one-size-fits-all baseline
// (Fig 2c): every demand gets the SAME availability level beta.
//
// Adaptation (DESIGN.md Sec 3/5): TEAVAR's scenario set is projected onto
// per-demand tunnel patterns (exact transformation) and the CVaR is applied
// per flow — the per-flow variant of the TEAVAR paper — at a single global
// beta (the paper's simulations use beta = 99.9%, the largest user target).
// Two LPs: (1) a common grant factor gamma* maximizing admitted volume,
// (2) CVaR_beta minimization of the per-flow fractional loss at grant
// gamma*.
#pragma once

#include "baselines/te.h"
#include "scenario/pattern.h"
#include "solver/simplex.h"

namespace bate {

class TeavarScheme final : public TeScheme {
 public:
  TeavarScheme(const Topology& topo, const TunnelCatalog& catalog,
               double beta = 0.999, SimplexOptions lp = {});

  std::string name() const override { return "TEAVAR"; }
  const TunnelCatalog& tunnel_catalog() const override { return *catalog_; }
  std::vector<Allocation> allocate(
      std::span<const Demand> demands) const override;

  double beta() const { return beta_; }

 private:
  const Topology* topo_;
  const TunnelCatalog* catalog_;
  double beta_;
  SimplexOptions lp_;
  std::vector<PatternDistribution> patterns_;  // per pair, exact model
};

/// Shared helper (also used by SMORE): the largest common grant factor
/// gamma <= 1 such that gamma * b_d is routable for every demand at once.
/// Returns 0 on solver failure.
double max_common_grant(const Topology& topo, const TunnelCatalog& catalog,
                        std::span<const Demand> demands,
                        const SimplexOptions& lp);

}  // namespace bate
