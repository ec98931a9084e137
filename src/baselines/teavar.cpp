#include "baselines/teavar.h"

#include <algorithm>
#include <map>

#include "scenario/pattern.h"
#include "solver/model.h"

namespace bate {

namespace {

struct PairVars {
  int first_var = -1;
  int tunnel_count = 0;
};

/// Adds g variables per (demand, pair, tunnel) plus normalized capacity rows.
std::vector<std::vector<PairVars>> add_flow_structure(
    Model& model, const Topology& topo, const TunnelCatalog& catalog,
    std::span<const Demand> demands) {
  std::vector<std::vector<PairVars>> gvars(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    gvars[i].resize(d.pairs.size());
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      gvars[i][p] = {model.variable_count(), static_cast<int>(tunnels.size())};
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        model.add_variable(0.0, kInfinity, 0.0);
      }
    }
  }
  std::vector<std::vector<Term>> rows(
      static_cast<std::size_t>(topo.link_count()));
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        for (LinkId e : tunnels[t].links) {
          rows[static_cast<std::size_t>(e)].push_back(
              {gvars[i][p].first_var + static_cast<int>(t), d.pairs[p].mbps});
        }
      }
    }
  }
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    auto& row = rows[static_cast<std::size_t>(e)];
    if (row.empty()) continue;
    const double cap = topo.link(e).capacity;
    for (Term& term : row) term.coef /= std::max(cap, 1e-9);
    model.add_constraint(std::move(row), Relation::kLessEqual, 1.0);
  }
  return gvars;
}

}  // namespace

double max_common_grant(const Topology& topo, const TunnelCatalog& catalog,
                        std::span<const Demand> demands,
                        const SimplexOptions& lp) {
  Model model;
  model.set_sense(Sense::kMaximize);
  const int gamma = model.add_variable(0.0, 1.0, 1.0);
  const auto gvars = add_flow_structure(model, topo, catalog, demands);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    for (std::size_t p = 0; p < demands[i].pairs.size(); ++p) {
      std::vector<Term> row{{gamma, -1.0}};
      for (int t = 0; t < gvars[i][p].tunnel_count; ++t) {
        row.push_back({gvars[i][p].first_var + t, 1.0});
      }
      model.add_constraint(std::move(row), Relation::kGreaterEqual, 0.0);
    }
  }
  const Solution sol = solve_lp(model, lp);
  if (!sol.optimal()) return 0.0;
  return std::clamp(sol.x[static_cast<std::size_t>(gamma)], 0.0, 1.0);
}

TeavarScheme::TeavarScheme(const Topology& topo, const TunnelCatalog& catalog,
                           double beta, SimplexOptions lp)
    : topo_(&topo), catalog_(&catalog), beta_(beta), lp_(lp) {
  patterns_.reserve(static_cast<std::size_t>(catalog.pair_count()));
  for (int k = 0; k < catalog.pair_count(); ++k) {
    patterns_.push_back(exact_patterns(topo, catalog.tunnels(k)));
  }
}

std::vector<Allocation> TeavarScheme::allocate(
    std::span<const Demand> demands) const {
  if (demands.empty()) return {};
  const double gamma = max_common_grant(*topo_, *catalog_, demands, lp_);
  std::vector<Allocation> allocs;
  allocs.reserve(demands.size());
  for (const Demand& d : demands) {
    allocs.push_back(zero_allocation(*catalog_, d));
  }
  if (gamma <= 0.0) return allocs;

  // TEAVAR aggregates all traffic of one s-d pair into a single commodity
  // (it routes the traffic matrix, not individual users), which is
  // precisely why it cannot differentiate user availability targets
  // (Fig 2c). Aggregate, solve the CVaR LP on pair flows, and hand every
  // user its proportional share of each tunnel.
  std::map<int, double> pair_volume;  // pair -> total demanded Mbps
  for (const Demand& d : demands) {
    for (const PairDemand& pd : d.pairs) pair_volume[pd.pair] += pd.mbps;
  }

  Model model;
  model.set_sense(Sense::kMinimize);
  const double tail = 1.0 / std::max(1e-6, 1.0 - beta_);

  // Flow variables g_{k,t} normalized to the aggregate volume of pair k:
  // sum_t g = gamma exactly (TEAVAR routes the granted traffic, no more).
  std::map<int, int> first_var;
  for (const auto& [pair, volume] : pair_volume) {
    const auto& tunnels = catalog_->tunnels(pair);
    first_var[pair] = model.variable_count();
    std::vector<Term> route;
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      route.push_back({model.add_variable(0.0, kInfinity, 0.0), 1.0});
    }
    model.add_constraint(std::move(route), Relation::kEqual, gamma);

    // Per-pair CVaR of the fractional loss, weighted by volume.
    const PatternDistribution* dist =
        &patterns_[static_cast<std::size_t>(pair)];
    const int alpha = model.add_variable(-1.0, 1.0, volume);
    const auto pattern_count = static_cast<PatternMask>(dist->prob.size());
    for (PatternMask s = 0; s < pattern_count; ++s) {
      const double prob = dist->prob[s];
      if (prob <= 0.0) continue;
      const int u = model.add_variable(0.0, kInfinity, volume * tail * prob);
      // u >= gamma - sum_{t in S} g - alpha  (loss under pattern S).
      std::vector<Term> row{{u, 1.0}, {alpha, 1.0}};
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if ((s >> t) & 1u) {
          row.push_back({first_var[pair] + static_cast<int>(t), 1.0});
        }
      }
      model.add_constraint(std::move(row), Relation::kGreaterEqual, gamma);
    }
    const double resid = dist->residual();
    if (resid > 0.0) {
      const int u = model.add_variable(0.0, kInfinity, volume * tail * resid);
      model.add_constraint({{u, 1.0}, {alpha, 1.0}}, Relation::kGreaterEqual,
                           gamma);
    }
  }

  // Capacity rows over aggregated flows.
  std::vector<std::vector<Term>> rows(
      static_cast<std::size_t>(topo_->link_count()));
  for (const auto& [pair, volume] : pair_volume) {
    const auto& tunnels = catalog_->tunnels(pair);
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      for (LinkId e : tunnels[t].links) {
        rows[static_cast<std::size_t>(e)].push_back(
            {first_var[pair] + static_cast<int>(t), volume});
      }
    }
  }
  for (LinkId e = 0; e < topo_->link_count(); ++e) {
    auto& row = rows[static_cast<std::size_t>(e)];
    if (row.empty()) continue;
    const double cap = topo_->link(e).capacity;
    for (Term& term : row) term.coef /= std::max(cap, 1e-9);
    model.add_constraint(std::move(row), Relation::kLessEqual, 1.0);
  }

  const Solution sol = solve_lp(model, lp_);
  if (!sol.optimal()) return allocs;

  // Proportional shares: user d gets (b_d / volume_k) of pair k's flow.
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog_->tunnels(d.pairs[p].pair);
      const int fv = first_var[d.pairs[p].pair];
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        const double g = std::max(
            0.0, sol.x[static_cast<std::size_t>(fv + static_cast<int>(t))]);
        allocs[i][p][t] = g * d.pairs[p].mbps;
      }
    }
  }
  return allocs;
}

}  // namespace bate
