#include "core/recovery.h"

#include <algorithm>
#include <numeric>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "core/pricing.h"
#include "core/scheduling.h"
#include "solver/model.h"
#include "util/check.h"

namespace bate {

namespace {

/// Recovery preconditions (Sec 3.4): failed links must name real links and
/// every demand must reference catalog pairs, or the surviving-tunnel scan
/// indexes out of bounds.
void validate_recovery_inputs(const Topology& topo,
                              const TunnelCatalog& catalog,
                              std::span<const Demand> demands,
                              std::span<const LinkId> failed_links) {
  for (const LinkId e : failed_links) {
    BATE_ASSERT_MSG(e >= 0 && e < topo.link_count(),
                    "recovery: failed link outside topology");
  }
  for (const Demand& d : demands) {
    for (const PairDemand& pd : d.pairs) {
      BATE_ASSERT_MSG(pd.pair >= 0 && pd.pair < catalog.pair_count(),
                      "recovery: demand references unknown pair");
    }
  }
}

/// A link carrying at most this much scheduled traffic is unaffected by its
/// failure: precompute() plans no backup for it and enforce() keeps the
/// primaries while only such links are down.
constexpr double kLoadedMbps = 1e-9;

bool link_failed(std::span<const LinkId> failed, LinkId id) {
  return std::find(failed.begin(), failed.end(), id) != failed.end();
}

bool tunnel_survives(const Tunnel& tunnel, std::span<const LinkId> failed) {
  for (LinkId e : tunnel.links) {
    if (link_failed(failed, e)) return false;
  }
  return true;
}

Allocation empty_allocation(const TunnelCatalog& catalog, const Demand& d) {
  Allocation a(d.pairs.size());
  for (std::size_t p = 0; p < d.pairs.size(); ++p) {
    a[p].assign(catalog.tunnels(d.pairs[p].pair).size(), 0.0);
  }
  return a;
}

/// Tries to place the whole demand on surviving tunnels within `residual`
/// (consumed on success). Shortest-surviving-tunnel first.
bool place_whole(const TunnelCatalog& catalog, const Demand& d,
                 std::span<const LinkId> failed, std::vector<double>& residual,
                 Allocation& out) {
  std::vector<double> scratch = residual;
  Allocation alloc = empty_allocation(catalog, d);
  for (std::size_t p = 0; p < d.pairs.size(); ++p) {
    const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
    double remaining = d.pairs[p].mbps;
    for (std::size_t t = 0; t < tunnels.size() && remaining > 1e-9; ++t) {
      if (!tunnel_survives(tunnels[t], failed)) continue;
      double cap = kInfinity;
      for (LinkId e : tunnels[t].links) {
        cap = std::min(cap, scratch[static_cast<std::size_t>(e)]);
      }
      const double f = std::min(cap, remaining);
      if (f <= 1e-9) continue;
      alloc[p][t] = f;
      remaining -= f;
      for (LinkId e : tunnels[t].links) {
        scratch[static_cast<std::size_t>(e)] -= f;
      }
    }
    if (remaining > 1e-9) return false;
  }
  residual = std::move(scratch);
  out = std::move(alloc);
  return true;
}

std::vector<double> surviving_residual(const Topology& topo,
                                       std::span<const LinkId> failed) {
  std::vector<double> residual(static_cast<std::size_t>(topo.link_count()));
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    residual[static_cast<std::size_t>(e)] =
        link_failed(failed, e) ? 0.0 : topo.link(e).capacity;
  }
  return residual;
}

}  // namespace

namespace {

// g = f/b per (demand, pair, surviving tunnel); capped at 1 (allocating
// beyond the demand cannot raise profit).
struct RecoveryPairVars {
  std::vector<int> var;  // -1 for dead tunnels
};

Model build_recovery_model_impl(
    const Topology& topo, const TunnelCatalog& catalog,
    std::span<const Demand> demands, std::span<const LinkId> failed_links,
    std::vector<std::vector<RecoveryPairVars>>* gvars_out,
    std::vector<int>* yvar_out) {
  Model model;
  model.set_sense(Sense::kMaximize);

  std::vector<std::vector<RecoveryPairVars>> gvars(demands.size());
  std::vector<int> yvar(demands.size(), -1);

  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    // Objective gain for keeping full profit: mu_d * charge.
    yvar[i] = model.add_binary(d.refund_fraction * d.charge);
    gvars[i].resize(d.pairs.size());
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      gvars[i][p].var.assign(tunnels.size(), -1);
      std::vector<Term> ratio_row{{yvar[i], -1.0}};
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (!tunnel_survives(tunnels[t], failed_links)) continue;
        const int v = model.add_variable(0.0, 1.0, 0.0);
        gvars[i][p].var[t] = v;
        ratio_row.push_back({v, 1.0});
      }
      // (9): R_dk >= y_d  <=>  sum_{surviving t} g - y >= 0.
      model.add_constraint(std::move(ratio_row), Relation::kGreaterEqual, 0.0);
    }
  }

  // (11): capacity on surviving links only.
  std::vector<std::vector<Term>> rows(
      static_cast<std::size_t>(topo.link_count()));
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        const int v = gvars[i][p].var[t];
        if (v < 0) continue;
        for (LinkId e : tunnels[t].links) {
          rows[static_cast<std::size_t>(e)].push_back({v, d.pairs[p].mbps});
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
  if (gvars_out) *gvars_out = std::move(gvars);
  if (yvar_out) *yvar_out = std::move(yvar);
  return model;
}

}  // namespace

Model build_recovery_model(const Topology& topo, const TunnelCatalog& catalog,
                           std::span<const Demand> demands,
                           std::span<const LinkId> failed_links) {
  validate_recovery_inputs(topo, catalog, demands, failed_links);
  return build_recovery_model_impl(topo, catalog, demands, failed_links,
                                   nullptr, nullptr);
}

RecoveryResult recover_optimal(const Topology& topo,
                               const TunnelCatalog& catalog,
                               std::span<const Demand> demands,
                               std::span<const LinkId> failed_links,
                               const BranchBoundOptions& options) {
  validate_recovery_inputs(topo, catalog, demands, failed_links);
  std::vector<std::vector<RecoveryPairVars>> gvars;
  std::vector<int> yvar;
  const Model model = build_recovery_model_impl(topo, catalog, demands,
                                                failed_links, &gvars, &yvar);

  const Solution sol = solve_milp(model, options);

  RecoveryResult result;
  result.solved = sol.status == SolveStatus::kOptimal ||
                  (sol.status == SolveStatus::kIterationLimit &&
                   !sol.x.empty());
  if (!result.solved) return result;

  result.alloc.reserve(demands.size());
  result.full_profit.resize(demands.size(), 0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    Allocation alloc = empty_allocation(catalog, d);
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      for (std::size_t t = 0; t < gvars[i][p].var.size(); ++t) {
        const int v = gvars[i][p].var[t];
        if (v < 0) continue;
        alloc[p][t] =
            std::max(0.0, sol.x[static_cast<std::size_t>(v)]) * d.pairs[p].mbps;
      }
    }
    result.alloc.push_back(std::move(alloc));
    result.full_profit[i] =
        sol.x[static_cast<std::size_t>(yvar[i])] > 0.5 ? 1 : 0;
  }
  result.profit = total_profit(demands, result.full_profit);
  return result;
}

RecoveryResult recover_greedy(const Topology& topo,
                              const TunnelCatalog& catalog,
                              std::span<const Demand> demands,
                              std::span<const LinkId> failed_links) {
  validate_recovery_inputs(topo, catalog, demands, failed_links);
  RecoveryResult result;
  result.solved = true;
  result.full_profit.assign(demands.size(), 0);
  result.alloc.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    result.alloc[i] = empty_allocation(catalog, demands[i]);
  }

  // Line 1: descending profit density g_d / sum_k b^k_d.
  std::vector<std::size_t> order(demands.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double da = demands[a].charge / std::max(demands[a].total_mbps(), 1e-9);
    const double db = demands[b].charge / std::max(demands[b].total_mbps(), 1e-9);
    return da > db;
  });

  auto residual = surviving_residual(topo, failed_links);
  std::vector<std::size_t> full_set;  // F
  double full_set_charge = 0.0;

  for (std::size_t idx = 0; idx < order.size(); ++idx) {
    const std::size_t i = order[idx];
    const Demand& d = demands[i];
    Allocation placed;
    if (place_whole(catalog, d, failed_links, residual, placed)) {
      result.alloc[i] = std::move(placed);  // lines 5-9
      result.full_profit[i] = 1;
      full_set.push_back(i);
      full_set_charge += d.charge;
      continue;
    }
    // Lines 11-17: a single richer demand may evict the accumulated set.
    if (full_set_charge < d.charge) {
      auto fresh = surviving_residual(topo, failed_links);
      Allocation alone;
      if (place_whole(catalog, d, failed_links, fresh, alone)) {
        for (std::size_t j : full_set) {
          result.alloc[j] = empty_allocation(catalog, demands[j]);
          result.full_profit[j] = 0;
        }
        full_set.assign(1, i);
        full_set_charge = d.charge;
        result.alloc[i] = std::move(alone);
        result.full_profit[i] = 1;
        residual = std::move(fresh);
      }
    }
    break;  // lines 17-19
  }

  // Demands outside F keep best-effort service on whatever surviving
  // capacity remains ("minimizing any possible collateral damage", Sec 3):
  // they forfeit full profit, but their traffic is not blackholed.
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (result.full_profit[i]) continue;
    const Demand& d = demands[i];
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      double remaining = d.pairs[p].mbps;
      for (std::size_t t = 0; t < tunnels.size() && remaining > 1e-9; ++t) {
        if (!tunnel_survives(tunnels[t], failed_links)) continue;
        double cap = kInfinity;
        for (LinkId e : tunnels[t].links) {
          cap = std::min(cap, residual[static_cast<std::size_t>(e)]);
        }
        const double f = std::min(cap, remaining);
        if (f <= 1e-9) continue;
        result.alloc[i][p][t] = f;
        remaining -= f;
        for (LinkId e : tunnels[t].links) {
          residual[static_cast<std::size_t>(e)] -= f;
        }
      }
    }
  }

  result.profit = total_profit(demands, result.full_profit);
  return result;
}

namespace {

void record_precompute(std::size_t plan_count, std::int64_t us) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  static obs::Counter& rounds = reg.counter("bate_recovery_precompute_total");
  static obs::Counter& plans =
      reg.counter("bate_recovery_plans_computed_total");
  static obs::Histogram& hist = reg.histogram("bate_recovery_precompute_us");
  rounds.inc();
  plans.inc(static_cast<std::int64_t>(plan_count));
  hist.record(us);
}

}  // namespace

void BackupPlanner::precompute(std::span<const Demand> demands,
                               std::span<const Allocation> current) {
  BATE_TRACE_SPAN("recovery.precompute");
  const std::int64_t t0 = obs::now_us();
  BATE_ASSERT_MSG(current.size() == demands.size(),
                  "recovery: allocation set does not match demand set");
  validate_recovery_inputs(*topo_, *catalog_, demands, {});
  demands_.assign(demands.begin(), demands.end());
  plans_.clear();

  // Algorithm 2: one greedy pass per loaded link.
  const auto usage = link_usage(*topo_, *catalog_, demands, current);
  for (LinkId e = 0; e < topo_->link_count(); ++e) {
    if (usage[static_cast<std::size_t>(e)] <= kLoadedMbps) continue;
    const LinkId failed[] = {e};
    plans_.emplace(e, recover_greedy(*topo_, *catalog_, demands_, failed));
  }
  record_precompute(plans_.size(), obs::now_us() - t0);
}

const RecoveryResult* BackupPlanner::plan(LinkId link) const {
  const auto it = plans_.find(link);
  return it == plans_.end() ? nullptr : &it->second;
}

std::span<const Allocation> BackupPlanner::enforce(
    std::span<const Demand> demands, std::span<const Allocation> primaries,
    std::span<const LinkId> down) {
  BATE_ASSERT_MSG(primaries.size() == demands.size(),
                  "recovery: allocation set does not match demand set");
  if (down.empty()) return primaries;
  for (const LinkId e : down) {
    BATE_ASSERT_MSG(e >= 0 && e < topo_->link_count(),
                    "recovery: failed link outside topology");
  }
  const auto usage = link_usage(*topo_, *catalog_, demands, primaries);
  if (std::none_of(down.begin(), down.end(), [&](LinkId e) {
        return usage[static_cast<std::size_t>(e)] > kLoadedMbps;
      })) {
    return primaries;
  }
  computed_ = recover_greedy(*topo_, *catalog_, demands, down);
  return computed_.alloc;
}

}  // namespace bate
