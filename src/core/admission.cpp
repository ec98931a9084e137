#include "core/admission.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace bate {

/// Admission preconditions (Sec 3.2): a demand offered to Algorithm 1 must
/// request finite nonnegative bandwidth on known pairs with beta in [0,1];
/// everything downstream (greedy walk, conjecture, MILP) assumes it.
const char* demand_defect(const TunnelCatalog& catalog, const Demand& demand) {
  if (demand.pairs.empty()) return "admission: demand with no pairs";
  std::size_t tunnels = 0;
  for (const PairDemand& pd : demand.pairs) {
    if (pd.pair < 0 || pd.pair >= catalog.pair_count()) {
      return "admission: demand references unknown pair";
    }
    if (!(std::isfinite(pd.mbps) && pd.mbps >= 0.0)) {
      return "admission: negative or non-finite bandwidth request";
    }
    tunnels += catalog.tunnels(pd.pair).size();
  }
  if (!(demand.availability_target >= 0.0 &&
        demand.availability_target <= 1.0)) {
    return "admission: availability target outside [0,1]";
  }
  if (!(demand.refund_fraction >= 0.0 && demand.refund_fraction <= 1.0)) {
    return "admission: refund fraction outside [0,1]";
  }
  if (tunnels > static_cast<std::size_t>(kMaxPatternTunnels)) {
    return "admission: demand spans too many tunnels";
  }
  return nullptr;
}

void validate_demand(const TunnelCatalog& catalog, const Demand& demand) {
  const char* defect = demand_defect(catalog, demand);
  BATE_ASSERT_MSG(defect == nullptr, defect);
}

namespace {

/// Remaining capacity of a tunnel: the bottleneck of its links' residuals.
double tunnel_capacity(const Tunnel& tunnel,
                       const std::vector<double>& residual) {
  double cap = kInfinity;
  for (LinkId e : tunnel.links) {
    cap = std::min(cap, residual[static_cast<std::size_t>(e)]);
  }
  return std::max(cap, 0.0);
}

struct GreedyResult {
  Allocation alloc;
  double availability_product = 1.0;  // prod of used tunnels' availabilities
  bool complete = false;              // full bandwidth placed on every pair
};

/// Inner loop of Algorithm 1 (lines 3-13): allocate one demand greedily,
/// tunnels ordered by ascending (remaining capacity x availability).
/// `residual` is consumed. When `allow_partial` the walk keeps whatever fit;
/// otherwise it stops unfinished with complete=false.
GreedyResult greedy_core(const Topology& topo, const TunnelCatalog& catalog,
                         const Demand& demand, std::vector<double>& residual,
                         bool allow_partial) {
  GreedyResult result;
  result.alloc.resize(demand.pairs.size());
  result.complete = true;
  for (std::size_t p = 0; p < demand.pairs.size(); ++p) {
    const PairDemand& pd = demand.pairs[p];
    const auto& tunnels = catalog.tunnels(pd.pair);
    result.alloc[p].assign(tunnels.size(), 0.0);

    // Line 4: does the pair's aggregate remaining capacity cover b?
    double pair_capacity = 0.0;
    for (const Tunnel& t : tunnels) {
      pair_capacity += tunnel_capacity(t, residual);
    }
    if (pair_capacity + 1e-9 < pd.mbps && !allow_partial) {
      result.complete = false;
      return result;
    }

    double remaining = pd.mbps;
    std::vector<char> used(tunnels.size(), 0);
    while (remaining > 1e-9) {
      // Line 8: pick the unused tunnel with the smallest c_t * p_t —
      // restricted to tunnels that keep the availability product s_d above
      // the demand's target, so a demand is not handed an unreliable
      // tunnel it does not need (the "good match" objective of Sec 3).
      // When no tunnel qualifies the plain argmin applies and the target
      // check below rejects the demand.
      int best = -1;
      double best_score = kInfinity;
      bool best_safe = false;
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (used[t]) continue;
        const double cap = tunnel_capacity(tunnels[t], residual);
        if (cap <= 1e-9) continue;
        const double avail = tunnels[t].availability(topo);
        const double score = cap * avail;
        const bool safe = result.availability_product * avail + 1e-12 >=
                          demand.availability_target;
        if ((safe && !best_safe) ||
            (safe == best_safe && score < best_score)) {
          best_score = score;
          best = static_cast<int>(t);
          best_safe = safe;
        }
      }
      if (best < 0) {
        result.complete = false;
        if (!allow_partial) return result;
        break;
      }
      const auto& tunnel = tunnels[static_cast<std::size_t>(best)];
      const double cap = tunnel_capacity(tunnel, residual);
      const double f = std::min(cap, remaining);
      result.alloc[p][static_cast<std::size_t>(best)] = f;
      used[static_cast<std::size_t>(best)] = 1;
      result.availability_product *= tunnel.availability(topo);
      remaining -= f;
      for (LinkId e : tunnel.links) {
        residual[static_cast<std::size_t>(e)] =
            std::max(0.0, residual[static_cast<std::size_t>(e)] - f);
      }
    }
  }
  return result;
}

}  // namespace

bool admission_conjecture(const TrafficScheduler& scheduler,
                          std::span<const Demand> demands) {
  const Topology& topo = scheduler.topology();
  const TunnelCatalog& catalog = scheduler.catalog();
  for (const Demand& d : demands) validate_demand(catalog, d);

  // Line 2: process demands by ascending sum_k b^k_d * beta_d.
  std::vector<Demand> order(demands.begin(), demands.end());
  std::sort(order.begin(), order.end(), [](const Demand& a, const Demand& b) {
    return a.admission_weight() < b.admission_weight();
  });

  std::vector<double> residual(static_cast<std::size_t>(topo.link_count()));
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    residual[static_cast<std::size_t>(e)] = topo.link(e).capacity;
  }

  // Lines 3-15 with a tighter certificate than the paper's product bound
  // s_d: the greedy walk (plus a redundancy top-up on reliable tunnels,
  // which the optimal MILP would also exploit) yields an actual allocation
  // whose hard availability is certified against the scheduler's pruned
  // failure model. A `true` answer therefore still implies feasibility
  // (Theorem 1) while rejecting far fewer multi-tunnel demands.
  for (const Demand& d : order) {
    if (!greedy_allocate_guaranteed(scheduler, d, residual)) return false;
  }
  return true;
}

std::optional<Allocation> greedy_allocate(const Topology& topo,
                                          const TunnelCatalog& catalog,
                                          const Demand& demand,
                                          std::vector<double>& residual) {
  validate_demand(catalog, demand);
  BATE_ASSERT_MSG(
      residual.size() == static_cast<std::size_t>(topo.link_count()),
      "admission: residual vector does not match topology");
  std::vector<double> scratch = residual;
  GreedyResult r =
      greedy_core(topo, catalog, demand, scratch, /*allow_partial=*/false);
  if (!r.complete) return std::nullopt;
  residual = std::move(scratch);
  return std::move(r.alloc);
}

std::optional<Allocation> greedy_allocate_guaranteed(
    const TrafficScheduler& scheduler, const Demand& demand,
    std::vector<double>& residual) {
  const Topology& topo = scheduler.topology();
  const TunnelCatalog& catalog = scheduler.catalog();
  validate_demand(catalog, demand);
  BATE_ASSERT_MSG(
      residual.size() == static_cast<std::size_t>(topo.link_count()),
      "admission: residual vector does not match topology");
  std::vector<double> scratch = residual;
  GreedyResult r =
      greedy_core(topo, catalog, demand, scratch, /*allow_partial=*/false);
  if (!r.complete) return std::nullopt;

  // Redundancy top-up (per pair, most reliable tunnels first): raise
  // single-tunnel rates toward b so that more patterns qualify, until the
  // hard availability target holds or capacity runs out. Certified against
  // the scheduler's own (pruned) failure model so that an admission is
  // always provable by the scheduling LP that follows.
  for (std::size_t p = 0; p < demand.pairs.size(); ++p) {
    const PairDemand& pd = demand.pairs[p];
    if (demand.availability_target <= 0.0) continue;
    const auto& dist = scheduler.lp_patterns(pd.pair);
    if (dist.availability(r.alloc[p], pd.mbps) + 1e-12 >=
        demand.availability_target) {
      continue;
    }
    const auto& tunnels = catalog.tunnels(pd.pair);
    std::vector<std::size_t> order(tunnels.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return tunnels[a].availability(topo) > tunnels[b].availability(topo);
    });
    for (std::size_t t : order) {
      if (r.alloc[p][t] + 1e-9 >= pd.mbps) continue;
      double cap = kInfinity;
      for (LinkId e : tunnels[t].links) {
        cap = std::min(cap, scratch[static_cast<std::size_t>(e)]);
      }
      const double extra = std::min(cap, pd.mbps - r.alloc[p][t]);
      if (extra <= 1e-9) continue;
      r.alloc[p][t] += extra;
      for (LinkId e : tunnels[t].links) {
        scratch[static_cast<std::size_t>(e)] -= extra;
      }
      if (dist.availability(r.alloc[p], pd.mbps) + 1e-12 >=
          demand.availability_target) {
        break;
      }
    }
  }

  // Certify the final allocation.
  double avail = 1.0;
  for (std::size_t p = 0; p < demand.pairs.size(); ++p) {
    avail *= scheduler.lp_patterns(demand.pairs[p].pair)
                 .availability(r.alloc[p], demand.pairs[p].mbps);
  }
  if (avail + 1e-12 < demand.availability_target) return std::nullopt;
  residual = std::move(scratch);
  return std::move(r.alloc);
}

Allocation greedy_allocate_partial(const Topology& topo,
                                   const TunnelCatalog& catalog,
                                   const Demand& demand,
                                   std::vector<double>& residual) {
  validate_demand(catalog, demand);
  BATE_ASSERT_MSG(
      residual.size() == static_cast<std::size_t>(topo.link_count()),
      "admission: residual vector does not match topology");
  GreedyResult r =
      greedy_core(topo, catalog, demand, residual, /*allow_partial=*/true);
  return std::move(r.alloc);
}

namespace {

/// Builds the Appendix-A feasibility MILP. `layout`, when non-null, receives
/// (first_var, tunnel_count) per (demand, pair position), flattened
/// pair-major in demand order.
Model build_admission_model_impl(const TrafficScheduler& scheduler,
                                 std::span<const Demand> demands,
                                 std::vector<std::pair<int, int>>* layout) {
  const Topology& topo = scheduler.topology();
  const TunnelCatalog& catalog = scheduler.catalog();

  Model model;
  model.set_sense(Sense::kMinimize);

  struct PairVars {
    int first_var = -1;
    int tunnel_count = 0;
  };
  std::vector<std::vector<PairVars>> gvars(demands.size());
  if (layout) layout->clear();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    gvars[i].resize(d.pairs.size());
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const int tn =
          static_cast<int>(catalog.tunnels(d.pairs[p].pair).size());
      gvars[i][p] = {model.variable_count(), tn};
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      for (int t = 0; t < tn; ++t) {
        // Feasibility problem, but a reliability-aware objective makes the
        // root relaxation land on concentrated (hard-feasible) vertices,
        // which the presolve check below then accepts without branching.
        const double avail =
            tunnels[static_cast<std::size_t>(t)].availability(topo);
        model.add_variable(0.0, kInfinity,
                           d.pairs[p].mbps * (1.0 + 0.01 * (1.0 - avail)));
      }
      // Full bandwidth in the failure-free state (matches constraint (1)).
      std::vector<Term> row;
      for (int t = 0; t < tn; ++t) row.push_back({gvars[i][p].first_var + t, 1.0});
      model.add_constraint(std::move(row), Relation::kGreaterEqual, 1.0);
      if (layout) {
        layout->push_back({gvars[i][p].first_var, gvars[i][p].tunnel_count});
      }
    }
  }

  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    if (d.availability_target <= 0.0) continue;
    const auto dp = scheduler.demand_patterns(d);
    const auto patterns = static_cast<PatternMask>(dp->dist.prob.size());

    std::vector<int> qvar(patterns, -1);
    std::vector<Term> avail_row;
    for (PatternMask s = 1; s < patterns; ++s) {
      const double prob = dp->dist.prob[s];
      if (prob <= 0.0) continue;
      const int q = model.add_binary(0.0);
      qvar[s] = q;
      avail_row.push_back(
          {q, prob * availability_row_scale(d.availability_target)});
      // (14): R^z_dk >= q  for every pair, i.e. sum_{t in S} g >= q.
      for (std::size_t p = 0; p < d.pairs.size(); ++p) {
        std::vector<Term> row{{q, -1.0}};
        for (int t = dp->ranges[p].first; t < dp->ranges[p].second; ++t) {
          if ((s >> t) & 1u) {
            row.push_back(
                {gvars[i][p].first_var + (t - dp->ranges[p].first), 1.0});
          }
        }
        model.add_constraint(std::move(row), Relation::kGreaterEqual, 0.0);
      }
    }
    // Monotonicity cuts: a pattern implies every superset pattern (more
    // tunnels up can only increase R). Tightens the relaxation.
    const int total_tunnels =
        dp->ranges.empty() ? 0 : dp->ranges.back().second;
    for (PatternMask s = 1; s < patterns; ++s) {
      if (qvar[s] < 0) continue;
      for (int t = 0; t < total_tunnels; ++t) {
        const PatternMask super = s | (1u << t);
        if (super != s && super < patterns && qvar[super] >= 0) {
          model.add_constraint({{qvar[s], 1.0}, {qvar[super], -1.0}},
                               Relation::kLessEqual, 0.0);
        }
      }
    }
    // (15)/(16): sum_S p_S q_S >= beta_d.
    model.add_constraint(std::move(avail_row), Relation::kGreaterEqual,
                         d.availability_target *
                             availability_row_scale(d.availability_target));
  }

  // Capacity rows.
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
  return model;
}

}  // namespace

Model build_admission_model(const TrafficScheduler& scheduler,
                            std::span<const Demand> demands) {
  return build_admission_model_impl(scheduler, demands, nullptr);
}

bool optimal_admission_check(const TrafficScheduler& scheduler,
                             std::span<const Demand> demands,
                             const BranchBoundOptions& options) {
  std::vector<std::pair<int, int>> layout;
  const Model model = build_admission_model_impl(scheduler, demands, &layout);

  // Presolve at the root: the LP relaxation is a relaxation of the hard
  // MILP, so LP-infeasible proves rejection; and if the relaxation's g
  // already meets every HARD availability target, the MILP is feasible
  // without branching. Both checks are exact short-circuits. The final
  // basis is kept: if branch & bound is needed below, its root relaxation
  // is this very LP and warm-starts straight to optimal.
  WarmStart warm;
  const Solution relax = solve_lp(model, options.lp, &warm);
  if (relax.status == SolveStatus::kInfeasible) return false;
  if (relax.status == SolveStatus::kOptimal) {
    bool all_hard_ok = true;
    std::size_t flat = 0;
    for (std::size_t i = 0; i < demands.size() && all_hard_ok; ++i) {
      const Demand& d = demands[i];
      const std::size_t base = flat;
      flat += d.pairs.size();
      if (d.availability_target <= 0.0) continue;
      Allocation alloc(d.pairs.size());
      for (std::size_t p = 0; p < d.pairs.size(); ++p) {
        const auto [first_var, tunnel_count] = layout[base + p];
        alloc[p].resize(static_cast<std::size_t>(tunnel_count));
        for (int t = 0; t < tunnel_count; ++t) {
          alloc[p][static_cast<std::size_t>(t)] =
              std::max(0.0, relax.x[static_cast<std::size_t>(first_var + t)]) *
              d.pairs[p].mbps;
        }
      }
      const auto dp = scheduler.demand_patterns(d);
      all_hard_ok = TrafficScheduler::pattern_hard_availability(*dp, d, alloc) +
                        1e-9 >=
                    d.availability_target;
    }
    if (all_hard_ok) return true;
  }

  // Second presolve witness: the scheduling LP plus its per-demand
  // hard-repair pass often yields a concentrated allocation that already
  // meets every hard target — a feasibility certificate that avoids branch
  // & bound entirely.
  {
    const ScheduleResult repaired = scheduler.schedule(demands);
    if (repaired.feasible) {
      bool all_hard_ok = true;
      for (std::size_t i = 0; i < demands.size() && all_hard_ok; ++i) {
        const Demand& d = demands[i];
        if (d.availability_target <= 0.0) continue;
        const auto dp = scheduler.demand_patterns(d);
        all_hard_ok = TrafficScheduler::pattern_hard_availability(
                          *dp, d, repaired.alloc[i]) +
                          1e-9 >=
                      d.availability_target;
      }
      if (all_hard_ok) return true;
    }
  }

  BranchBoundOptions feasibility = options;
  feasibility.stop_at_first_incumbent = true;
  const Solution sol = solve_milp(model, feasibility, &warm);
  if (sol.status == SolveStatus::kOptimal) return true;
  if (sol.status == SolveStatus::kIterationLimit) {
    // Budget exhausted. A non-empty solution is an integer-feasible
    // witness; otherwise fall back to the (sound) greedy conjecture.
    if (!sol.x.empty()) return true;
    return admission_conjecture(scheduler, demands);
  }
  return false;
}

AdmissionController::AdmissionController(const TrafficScheduler& scheduler,
                                         AdmissionStrategy strategy)
    : scheduler_(&scheduler), strategy_(strategy) {}

std::vector<double> AdmissionController::residual_capacity() const {
  const Topology& topo = scheduler_->topology();
  auto usage = link_usage(topo, scheduler_->catalog(), admitted_, allocations_);
  std::vector<double> residual(usage.size());
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    residual[static_cast<std::size_t>(e)] =
        std::max(0.0, topo.link(e).capacity - usage[static_cast<std::size_t>(e)]);
  }
  return residual;
}

namespace {

/// Subtracts an allocation's per-link usage from `residual` (clamped at 0),
/// keeping a caller-maintained residual equal to residual_capacity().
void consume_residual(const TunnelCatalog& catalog, const Demand& demand,
                      const Allocation& alloc, std::vector<double>& residual) {
  for (std::size_t p = 0; p < demand.pairs.size(); ++p) {
    const auto& tunnels = catalog.tunnels(demand.pairs[p].pair);
    for (std::size_t t = 0; t < tunnels.size() && t < alloc[p].size(); ++t) {
      const double f = alloc[p][t];
      if (f <= 0.0) continue;
      for (LinkId e : tunnels[t].links) {
        residual[static_cast<std::size_t>(e)] =
            std::max(0.0, residual[static_cast<std::size_t>(e)] - f);
      }
    }
  }
}

}  // namespace

bool AdmissionController::try_fixed(const Demand& demand,
                                    std::vector<double>& residual) {
  // Step (1): can the newcomer be HARD-guaranteed out of residual capacity
  // alone? The greedy allocator with redundancy top-up certifies an actual
  // allocation; if it fails, the single-demand scheduling LP (with its
  // hard-repair pass) gets a second look. `residual` stays equal to
  // residual_capacity() throughout: the greedy path consumes it on success
  // and leaves it untouched on failure, the LP path subtracts its
  // allocation explicitly.
  if (auto alloc = greedy_allocate_guaranteed(*scheduler_, demand, residual)) {
    admitted_.push_back(demand);
    allocations_.push_back(std::move(*alloc));
    return true;
  }
  const Demand demand_copy = demand;
  const ScheduleResult r = scheduler_->schedule(
      std::span<const Demand>(&demand_copy, 1), residual);
  if (!r.feasible) return false;
  if (achieved_availability(scheduler_->topology(), scheduler_->catalog(),
                            demand, r.alloc[0]) +
          1e-9 <
      demand.availability_target) {
    return false;  // LP met (4) only in the relaxed sense
  }
  consume_residual(scheduler_->catalog(), demand, r.alloc[0], residual);
  admitted_.push_back(demand);
  allocations_.push_back(r.alloc[0]);
  return true;
}

namespace {

const char* strategy_name(AdmissionStrategy s) {
  switch (s) {
    case AdmissionStrategy::kFixed: return "fixed";
    case AdmissionStrategy::kBate: return "bate";
    case AdmissionStrategy::kOptimal: return "optimal";
  }
  return "unknown";
}

/// One registry flush per admission decision: per-strategy accept/reject,
/// conjecture-step outcomes, and the decision latency histogram.
void record_admission(AdmissionStrategy strategy,
                      const AdmissionOutcome& outcome, std::int64_t us) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  static obs::Histogram& decision_us =
      reg.histogram("bate_admission_decision_us");
  reg.counter(std::string("bate_admission_") + strategy_name(strategy) +
              (outcome.admitted ? "_accepted_total" : "_rejected_total"))
      .inc();
  if (outcome.via_conjecture) {
    static obs::Counter& conjecture =
        reg.counter("bate_admission_conjecture_accepted_total");
    conjecture.inc();
  } else if (strategy == AdmissionStrategy::kBate && !outcome.admitted) {
    // A kBate rejection means the conjecture step itself said no (the fixed
    // step alone never rejects under kBate).
    static obs::Counter& conjecture_no =
        reg.counter("bate_admission_conjecture_rejected_total");
    conjecture_no.inc();
  }
  decision_us.record(us);
}

}  // namespace

void AdmissionController::admit_and_reschedule(const Demand& demand,
                                               std::vector<double>& residual,
                                               bool* rescheduled) {
  // Temporary allocation from whatever residual capacity remains (possibly
  // partial; the scheduling round completes it, guaranteed feasible by
  // Theorem 1 or by the optimal check).
  Allocation temp(demand.pairs.size());
  for (std::size_t p = 0; p < demand.pairs.size(); ++p) {
    temp[p].assign(scheduler_->catalog().tunnels(demand.pairs[p].pair).size(),
                   0.0);
  }
  auto full = greedy_allocate(scheduler_->topology(), scheduler_->catalog(),
                              demand, residual);
  if (full) temp = std::move(*full);
  admitted_.push_back(demand);
  allocations_.push_back(std::move(temp));
  reschedule();
  *rescheduled = true;
  residual = residual_capacity();  // allocations changed wholesale
}

AdmissionOutcome AdmissionController::offer_one(const Demand& demand,
                                                std::vector<double>& residual,
                                                bool* rescheduled) {
  validate_demand(scheduler_->catalog(), demand);
  BATE_DCHECK_MSG(admitted_.size() == allocations_.size(),
                  "admission: admitted/allocation desync");
  BATE_TRACE_SPAN("admission.offer");
  const std::int64_t start_us = obs::now_us();
  AdmissionOutcome outcome;

  switch (strategy_) {
    case AdmissionStrategy::kFixed:
      outcome.admitted = try_fixed(demand, residual);
      break;
    case AdmissionStrategy::kBate: {
      if (try_fixed(demand, residual)) {
        outcome.admitted = true;
        break;
      }
      std::vector<Demand> all = admitted_;
      all.push_back(demand);
      if (admission_conjecture(*scheduler_, all)) {
        outcome.admitted = true;
        outcome.via_conjecture = true;
        admit_and_reschedule(demand, residual, rescheduled);
      }
      break;
    }
    case AdmissionStrategy::kOptimal: {
      std::vector<Demand> all = admitted_;
      all.push_back(demand);
      if (optimal_admission_check(*scheduler_, all, optimal_options_)) {
        outcome.admitted = true;
        admit_and_reschedule(demand, residual, rescheduled);
      }
      break;
    }
  }

  const std::int64_t elapsed_us = obs::now_us() - start_us;
  outcome.decision_seconds = static_cast<double>(elapsed_us) * 1e-6;
  record_admission(strategy_, outcome, elapsed_us);
  return outcome;
}

AdmissionOutcome AdmissionController::offer(const Demand& demand) {
  std::vector<double> residual = residual_capacity();
  bool rescheduled = false;
  return offer_one(demand, residual, &rescheduled);
}

BatchAdmissionOutcome AdmissionController::offer_batch(
    std::span<const Demand> demands) {
  BatchAdmissionOutcome out;
  out.first_new_index = admitted_.size();
  if (demands.empty()) return out;
  BATE_TRACE_SPAN("admission.offer_batch");

  std::vector<double> residual = residual_capacity();
  out.outcomes.reserve(demands.size());
  for (const Demand& d : demands) {
    out.outcomes.push_back(offer_one(d, residual, &out.rescheduled));
  }
  return out;
}

void AdmissionController::remove(DemandId id) {
  for (std::size_t i = 0; i < admitted_.size(); ++i) {
    if (admitted_[i].id == id) {
      admitted_.erase(admitted_.begin() + static_cast<std::ptrdiff_t>(i));
      allocations_.erase(allocations_.begin() +
                         static_cast<std::ptrdiff_t>(i));
      return;
    }
  }
}

void AdmissionController::set_allocations(
    std::vector<Allocation> allocations) {
  BATE_ASSERT_MSG(allocations.size() == admitted_.size(),
                  "admission: allocation set does not match admitted set");
  allocations_ = std::move(allocations);
}

bool AdmissionController::reschedule() {
  if (admitted_.empty()) return true;
  // Successive reschedules over a slowly changing admitted set re-solve a
  // near-identical LP. sched_basis_ carries each round's final basis into
  // the next: schedule() translates it onto the new model by demand id, so
  // admits and withdraws restart from it too, and only a round where no
  // demand carries over (the first) solves cold.
  const ScheduleResult r = scheduler_->schedule(admitted_, {}, &sched_basis_);
  if (!r.feasible) return false;
  allocations_ = r.alloc;
  return true;
}

}  // namespace bate
