// Equivalence of the fast simplex path (partial pricing, cached reduced
// costs, eta-file basis) against the reference mode (full Dantzig pricing
// over exact reduced costs, refactorization every iteration — the
// pre-overhaul behaviour kept as SimplexOptions::reference_mode).
//
// Both paths must agree on the feasibility verdict on every instance and,
// when optimal, on the objective to tight relative tolerance. Iteration
// counts may differ (different pivot sequences are fine; the optimum is
// unique in value, not in basis).
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "core/admission.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "routing/tunnels.h"
#include "solver/branch_bound.h"
#include "solver/simplex.h"
#include "topology/catalog.h"
#include "workload/demand.h"

namespace bate {
namespace {

constexpr double kRelTol = 1e-6;

void expect_equivalent(const Model& model, const std::string& what) {
  SimplexOptions fast;
  SimplexOptions ref;
  ref.reference_mode = true;
  const Solution a = solve_lp(model, fast);
  const Solution b = solve_lp(model, ref);
  ASSERT_EQ(a.status, b.status) << what;
  if (a.status == SolveStatus::kOptimal) {
    const double denom = std::max(1.0, std::abs(b.objective));
    EXPECT_LE(std::abs(a.objective - b.objective) / denom, kRelTol) << what;
  }
}

/// Random bounded LP with a mix of row relations, bound shapes and senses.
/// Constructed so that all three verdicts (optimal / infeasible / unbounded)
/// occur across the seed range.
Model random_lp(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> nvars_d(2, 12);
  std::uniform_int_distribution<int> nrows_d(1, 14);
  std::uniform_real_distribution<double> coef_d(-4.0, 4.0);
  std::uniform_real_distribution<double> unit_d(0.0, 1.0);

  Model m;
  if (unit_d(rng) < 0.5) m.set_sense(Sense::kMaximize);
  const int n = nvars_d(rng);
  for (int j = 0; j < n; ++j) {
    const double lo = unit_d(rng) < 0.3 ? coef_d(rng) * 0.5 : 0.0;
    double hi = kInfinity;
    if (unit_d(rng) < 0.6) hi = lo + std::abs(coef_d(rng)) * 3.0;
    m.add_variable(std::min(lo, hi), hi, coef_d(rng));
  }
  const int rows = nrows_d(rng);
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (unit_d(rng) < 0.5) terms.push_back({j, coef_d(rng)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    const double roll = unit_d(rng);
    const Relation rel = roll < 0.6   ? Relation::kLessEqual
                         : roll < 0.85 ? Relation::kGreaterEqual
                                       : Relation::kEqual;
    m.add_constraint(std::move(terms), rel, coef_d(rng) * 2.0);
  }
  return m;
}

class SimplexEquivalenceRandom : public ::testing::TestWithParam<int> {};

TEST_P(SimplexEquivalenceRandom, FastMatchesReference) {
  const int seed = GetParam();
  // 10 instances per ctest shard x 20 shards = 200 seeded random LPs.
  for (int k = 0; k < 10; ++k) {
    const std::uint64_t s =
        9000u + static_cast<std::uint64_t>(seed) * 10u +
        static_cast<std::uint64_t>(k);
    expect_equivalent(random_lp(s), "random_lp seed " + std::to_string(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexEquivalenceRandom,
                         ::testing::Range(0, 20));

/// A small-topology demand set with mixed availability targets, the same
/// shape the schedulers produce in production.
std::vector<Demand> small_demands(const TunnelCatalog& catalog,
                                  std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pair_d(0, catalog.pair_count() - 1);
  std::uniform_real_distribution<double> mbps_d(5.0, 60.0);
  std::uniform_real_distribution<double> unit_d(0.0, 1.0);
  std::vector<Demand> demands;
  for (int i = 0; i < 8; ++i) {
    Demand d;
    d.id = i;
    d.pairs.push_back({pair_d(rng), mbps_d(rng)});
    if (unit_d(rng) < 0.25) d.pairs.push_back({pair_d(rng), mbps_d(rng)});
    const double roll = unit_d(rng);
    d.availability_target = roll < 0.3 ? 0.0 : (roll < 0.7 ? 0.99 : 0.999);
    demands.push_back(std::move(d));
  }
  return demands;
}

TEST(SimplexEquivalence, SchedulingModels) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 3);
  TrafficScheduler sched(topo, catalog);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto demands = small_demands(catalog, seed);
    expect_equivalent(sched.build_schedule_model(demands),
                      "schedule seed " + std::to_string(seed));
  }
}

TEST(SimplexEquivalence, AdmissionModels) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 3);
  TrafficScheduler sched(topo, catalog);
  for (std::uint64_t seed = 11; seed <= 13; ++seed) {
    const auto demands = small_demands(catalog, seed);
    // The admission MILP's LP relaxation (integrality markers ignored by
    // solve_lp).
    expect_equivalent(build_admission_model(sched, demands),
                      "admission seed " + std::to_string(seed));
  }
}

// --- Warm-started re-solves (solve_lp WarmStart API) ----------------------

Solution reference_solve(const Model& model) {
  SimplexOptions ref;
  ref.reference_mode = true;
  return solve_lp(model, ref);
}

void expect_matches_reference(const Solution& got, const Model& model,
                              const std::string& what) {
  const Solution want = reference_solve(model);
  ASSERT_EQ(got.status, want.status) << what;
  if (want.status == SolveStatus::kOptimal) {
    const double denom = std::max(1.0, std::abs(want.objective));
    EXPECT_LE(std::abs(got.objective - want.objective) / denom, kRelTol)
        << what;
  }
}

TEST(SimplexWarmStart, SameModelResolveReusesBasis) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 3);
  TrafficScheduler sched(topo, catalog);
  const Model model = sched.build_schedule_model(small_demands(catalog, 31));

  WarmStart warm;
  const Solution cold = solve_lp(model, {}, &warm);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  EXPECT_FALSE(warm.used);  // nothing to reuse on the first solve
  ASSERT_TRUE(warm.basis.compatible_with(model));

  const Solution hot = solve_lp(model, {}, &warm);
  EXPECT_TRUE(warm.used);
  ASSERT_EQ(hot.status, SolveStatus::kOptimal);
  // Restarting from the final basis of the identical model converges
  // without re-doing the cold solve's pivoting work.
  EXPECT_LE(hot.pivots, cold.pivots);
  expect_matches_reference(hot, model, "same-model warm resolve");
}

TEST(SimplexWarmStart, PerturbedResolvesMatchReference) {
  // The production pattern: period t+1 re-solves a model with the same
  // shape but drifted objective/bounds, warm-started from period t's basis.
  int used = 0;
  for (std::uint64_t seed = 9100; seed < 9130; ++seed) {
    Model model = random_lp(seed);
    WarmStart warm;
    solve_lp(model, {}, &warm);
    ASSERT_TRUE(warm.basis.compatible_with(model)) << seed;

    Model drifted = model;
    std::mt19937_64 rng(seed ^ 0xabcdefull);
    std::uniform_real_distribution<double> jitter(-0.2, 0.2);
    for (int j = 0; j < drifted.variable_count(); ++j) {
      Variable& v = drifted.variable(j);
      v.objective += jitter(rng);
      v.lower -= std::abs(jitter(rng));  // widen: keeps lower <= upper
      if (v.upper != kInfinity) v.upper += std::abs(jitter(rng));
    }
    const Solution hot = solve_lp(drifted, {}, &warm);
    if (warm.used) ++used;
    expect_matches_reference(hot, drifted,
                             "perturbed seed " + std::to_string(seed));
  }
  // The warm path must actually engage on same-shape re-solves, not
  // silently fall back cold across the whole suite.
  EXPECT_GT(used, 15);
}

TEST(SimplexWarmStart, StaleBasisFallsBackCold) {
  Model a = random_lp(9200);
  WarmStart warm;
  solve_lp(a, {}, &warm);

  Model b = random_lp(9201);
  if (b.variable_count() == a.variable_count() &&
      b.constraint_count() == a.constraint_count()) {
    b.add_variable(0.0, 1.0, 0.0);  // force a shape mismatch
  }
  ASSERT_FALSE(warm.basis.compatible_with(b));
  const Solution sol = solve_lp(b, {}, &warm);
  EXPECT_FALSE(warm.used);
  // The stale basis was replaced by b's final basis.
  EXPECT_TRUE(warm.basis.compatible_with(b));
  expect_matches_reference(sol, b, "stale-basis fallback");
}

TEST(SimplexWarmStart, ReferenceModeIgnoresWarmStart) {
  const Model model = random_lp(9210);
  WarmStart warm;
  solve_lp(model, {}, &warm);
  ASSERT_TRUE(warm.basis.compatible_with(model));

  SimplexOptions ref;
  ref.reference_mode = true;
  const Solution sol = solve_lp(model, ref, &warm);
  EXPECT_FALSE(warm.used);  // reference mode never takes the warm path
  ASSERT_EQ(sol.status, reference_solve(model).status);
}

TEST(SimplexWarmStart, ReinversionEvictsADuplicateBasicColumn) {
  // x0 and x1 are the same column, both basic in the warm basis, so the
  // basis is singular. Reinversion pivots x0 in, finds nothing left of x1
  // and evicts it to its nearest bound, handing its row to a slack. x2,
  // reinverted next, has no term in the row x0 pivoted on: any value the
  // evicted column left in the workspace there would corrupt its eta.
  Model model;
  model.set_sense(Sense::kMaximize);
  model.add_variable(1.0, 10.0, 2.0);  // x0
  model.add_variable(1.0, 10.0, 2.0);  // x1 = x0
  model.add_variable(0.0, kInfinity, 1.0);  // x2
  model.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLessEqual, 4.0);
  model.add_constraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, Relation::kLessEqual,
                       6.0);
  model.add_constraint({{2, 1.0}}, Relation::kLessEqual, 5.0);

  WarmStart warm;
  warm.basis.structural_count = 3;
  warm.basis.constraint_count = 3;
  warm.basis.basic = {0, 1, 2};
  warm.basis.status = {VarStatus::kBasic,   VarStatus::kBasic,
                       VarStatus::kBasic,   VarStatus::kAtLower,
                       VarStatus::kAtLower, VarStatus::kAtLower};
  SimplexOptions opt;
  opt.presolve = false;  // keep the basis exactly as given
  const Solution sol = solve_lp(model, opt, &warm);
  ASSERT_TRUE(warm.used);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_GE(sol.refactorizations, 1);
  EXPECT_EQ(sol.x[1], 1.0) << "the later duplicate sits at its lower bound";
  EXPECT_EQ(warm.basis.status[1], VarStatus::kAtLower);
  // x2 ties on rows 1 and 2 and takes the lower; row 2 goes to its slack.
  // That basis is already optimal, so the restart pivots no more.
  EXPECT_EQ(warm.basis.basic, (std::vector<int>{0, 2, 5}));
  EXPECT_EQ(sol.pivots, 0);
  EXPECT_NEAR(sol.objective, 10.0, 1e-9);
  expect_matches_reference(sol, model, "duplicate basic column");
  EXPECT_TRUE(model.feasible(sol.x, 1e-9));
}

// --- Branch & bound: warm-started nodes and the parallel driver -----------

/// Random bounded feasible MILP (binaries plus a few continuous vars, all
/// coefficients positive, <= rows): x = 0 is always feasible, so every
/// instance has a unique optimal objective both drivers must reach.
Model random_milp(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> nbin_d(3, 8);
  std::uniform_int_distribution<int> ncont_d(0, 3);
  std::uniform_real_distribution<double> coef_d(0.5, 5.0);
  std::uniform_real_distribution<double> unit_d(0.0, 1.0);

  Model m;
  m.set_sense(Sense::kMaximize);
  const int nb = nbin_d(rng);
  const int nc = ncont_d(rng);
  for (int j = 0; j < nb; ++j) m.add_binary(coef_d(rng));
  for (int j = 0; j < nc; ++j) {
    m.add_variable(0.0, coef_d(rng), 0.3 * coef_d(rng));
  }
  const int n = nb + nc;
  const int rows = 2 + static_cast<int>(rng() % 4);
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < n; ++j) {
      if (unit_d(rng) < 0.7) terms.push_back({j, coef_d(rng)});
    }
    if (terms.empty()) terms.push_back({0, 1.0});
    m.add_constraint(std::move(terms), Relation::kLessEqual,
                     coef_d(rng) * n / 2.5);
  }
  return m;
}

TEST(SimplexWarmStart, DualSimplexServesBoundTightenedResolves) {
  // The branch & bound child pattern: the parent's optimal basis with one
  // variable bound tightened past its LP value is primal-infeasible but
  // dual-feasible. The dual simplex must take those restarts (dual_pivots
  // engages across the suite) and land on exactly the reference answer.
  SimplexOptions opt;
  opt.presolve = false;  // keep the child model the same shape as the parent
  long dual_pivots = 0;
  int tightened = 0;
  for (std::uint64_t seed = 9300; seed < 9340; ++seed) {
    const Model model = random_milp(seed);  // bounded feasible relaxations
    WarmStart warm;
    const Solution relax = solve_lp(model, opt, &warm);
    if (relax.status != SolveStatus::kOptimal) continue;

    int var = -1;
    double slack = 0.05;  // headroom above the lower bound needed to tighten
    for (int j = 0; j < model.variable_count(); ++j) {
      const double room =
          relax.x[static_cast<std::size_t>(j)] - model.variable(j).lower;
      if (room > slack) {
        slack = room;
        var = j;
      }
    }
    if (var < 0) continue;
    Model child = model;
    child.variable(var).upper =
        relax.x[static_cast<std::size_t>(var)] - 0.5 * slack;  // cuts off x*
    ++tightened;

    const Solution hot = solve_lp(child, opt, &warm);
    EXPECT_TRUE(warm.used) << "seed " << seed;
    dual_pivots += hot.dual_pivots;
    EXPECT_LE(hot.dual_pivots, hot.pivots) << "seed " << seed;
    expect_matches_reference(hot, child,
                             "dual-restart seed " + std::to_string(seed));
  }
  // The suite must actually exercise the dual path, not fall back to the
  // composite repair everywhere.
  ASSERT_GT(tightened, 10);
  EXPECT_GT(dual_pivots, 0);
}

TEST(BranchBound, WarmStartedNodesMatchReference) {
  long warm_nodes = 0;
  for (int k = 0; k < 100; ++k) {
    const std::uint64_t s = 31000u + static_cast<std::uint64_t>(k);
    const Model m = random_milp(s);

    BranchBoundOptions ref_opt;
    ref_opt.lp.reference_mode = true;

    BranchBoundStats warm_st;
    const Solution a = solve_milp(m, {}, nullptr, &warm_st);
    const Solution r = solve_milp(m, ref_opt);
    warm_nodes += warm_st.warm_started_nodes;

    ASSERT_EQ(a.status, SolveStatus::kOptimal) << "seed " << s;
    ASSERT_EQ(r.status, SolveStatus::kOptimal) << "seed " << s;
    EXPECT_NEAR(a.objective, r.objective, 1e-6) << "seed " << s;
  }
  // Parent bases must actually seed child relaxations across the suite.
  EXPECT_GT(warm_nodes, 0);
}

TEST(BranchBound, NodeMemoryStaysDeltaSized) {
  // Every node beyond the root carries exactly one bound delta; a full
  // bound-vector copy per node (the pre-warm-start implementation) would
  // blow this count up by the tree depth. The static_assert on sizeof(Node)
  // in branch_bound.cpp is the compile-time half of this guard.
  long branched_instances = 0;
  for (int k = 0; k < 20; ++k) {
    const Model m = random_milp(31500u + static_cast<std::uint64_t>(k));
    BranchBoundStats st;
    const Solution sol = solve_milp(m, {}, nullptr, &st);
    ASSERT_EQ(sol.status, SolveStatus::kOptimal) << k;
    EXPECT_EQ(st.bound_deltas_allocated, st.nodes_created - 1) << k;
    if (st.nodes_created > 1) ++branched_instances;
  }
  // The suite must contain instances that actually branch.
  EXPECT_GT(branched_instances, 0);
}

TEST(BranchBound, RootWarmStartRoundTrip) {
  const Model m = random_milp(31007);
  WarmStart warm;
  const Solution a = solve_milp(m, {}, &warm);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  EXPECT_FALSE(warm.used);  // first root relaxation had no basis
  ASSERT_TRUE(warm.basis.compatible_with(m));

  const Solution b = solve_milp(m, {}, &warm);
  EXPECT_TRUE(warm.used);  // second root relaxation accepted the basis
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-9);
}

TEST(SimplexEquivalence, SolutionCarriesWorkCounters) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 3);
  TrafficScheduler sched(topo, catalog);
  const auto demands = small_demands(catalog, 21);
  const Solution sol = solve_lp(sched.build_schedule_model(demands), {});
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_GT(sol.iterations, 0);
  EXPECT_GT(sol.pivots, 0);
  EXPECT_LE(sol.pivots, sol.iterations);
}

// --- Presolve: reductions must be invisible in every result --------------

/// Verifies the recovered duals certify optimality of `sol` on the FULL
/// model: row duals sign-valid for their relation, reduced costs sign-valid
/// for the bound they price, and the dual objective (y'b plus bound
/// contributions of the reduced costs) equal to the primal optimum. This is
/// strong duality checked directly — a presolved solve has to reconstruct
/// duals for rows the simplex never saw, and this catches any wrong
/// reconstruction.
void expect_strong_duality(const Model& model, const Solution& sol,
                           const std::string& what) {
  const int n = model.variable_count();
  const int m = model.constraint_count();
  ASSERT_EQ(sol.duals.size(), static_cast<std::size_t>(m)) << what;
  const bool maximize = model.sense() == Sense::kMaximize;

  // Work in min sense (flip objective and duals together for max models).
  std::vector<double> y(static_cast<std::size_t>(m));
  for (int i = 0; i < m; ++i) {
    y[static_cast<std::size_t>(i)] =
        maximize ? -sol.duals[static_cast<std::size_t>(i)]
                 : sol.duals[static_cast<std::size_t>(i)];
    switch (model.constraint(i).relation) {
      case Relation::kLessEqual:
        EXPECT_LE(y[static_cast<std::size_t>(i)], 1e-6)
            << what << " row " << i;
        break;
      case Relation::kGreaterEqual:
        EXPECT_GE(y[static_cast<std::size_t>(i)], -1e-6)
            << what << " row " << i;
        break;
      case Relation::kEqual:
        break;  // any sign
    }
  }
  std::vector<double> d(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    const double c = model.variable(j).objective;
    d[static_cast<std::size_t>(j)] = maximize ? -c : c;
  }
  double dual_obj = 0.0;
  for (int i = 0; i < m; ++i) {
    const Constraint& c = model.constraint(i);
    dual_obj += y[static_cast<std::size_t>(i)] * c.rhs;
    for (const Term& t : c.terms) {
      d[static_cast<std::size_t>(t.var)] -=
          y[static_cast<std::size_t>(i)] * t.coef;
    }
  }
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    const double dj = d[static_cast<std::size_t>(j)];
    if (dj > 0.0) {
      dual_obj += dj * v.lower;  // lower bounds are finite by contract
    } else if (dj < 0.0) {
      if (v.upper == kInfinity) {
        // A strictly negative reduced cost on an unbounded column would
        // mean the certificate is broken (beyond simplex tolerance noise).
        EXPECT_LE(-dj, 1e-6) << what << " var " << j;
      } else {
        dual_obj += dj * v.upper;
      }
    }
  }
  const double prim = maximize ? -sol.objective : sol.objective;
  EXPECT_NEAR(dual_obj, prim, 1e-5 * (1.0 + std::abs(prim))) << what;
}

void expect_presolve_equivalent(const Model& model, const std::string& what) {
  const Solution ref = reference_solve(model);
  const Solution fast = solve_lp(model);  // presolve on by default
  ASSERT_EQ(fast.status, ref.status) << what;
  if (ref.status != SolveStatus::kOptimal) return;
  const double denom = std::max(1.0, std::abs(ref.objective));
  EXPECT_LE(std::abs(fast.objective - ref.objective) / denom, kRelTol) << what;
  // The expanded primal point must be feasible for the FULL model, not just
  // the reduction the simplex saw.
  EXPECT_TRUE(model.feasible(fast.x, 1e-6)) << what;
  expect_strong_duality(model, fast, what);
}

class PresolveEquivalenceRandom : public ::testing::TestWithParam<int> {};

TEST_P(PresolveEquivalenceRandom, MatchesReferenceWithValidDuals) {
  // The same 200 seeded LPs as the fast-path equivalence suite, but now
  // also checking full-model primal feasibility and the recovered dual
  // certificate on every optimal instance.
  const int seed = GetParam();
  for (int k = 0; k < 10; ++k) {
    const std::uint64_t s =
        9000u + static_cast<std::uint64_t>(seed) * 10u +
        static_cast<std::uint64_t>(k);
    expect_presolve_equivalent(random_lp(s),
                               "presolve random_lp seed " + std::to_string(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveEquivalenceRandom,
                         ::testing::Range(0, 20));

TEST(PresolveEquivalence, BuilderModels) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 3);
  TrafficScheduler sched(topo, catalog);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto demands = small_demands(catalog, seed);
    expect_presolve_equivalent(sched.build_schedule_model(demands),
                               "presolve schedule seed " +
                                   std::to_string(seed));
    expect_presolve_equivalent(build_admission_model(sched, demands),
                               "presolve admission seed " +
                                   std::to_string(seed));
    const std::vector<LinkId> failed = {0};
    expect_presolve_equivalent(
        build_recovery_model(topo, catalog, demands, failed),
        "presolve recovery seed " + std::to_string(seed));
  }
}

TEST(PresolveEquivalence, AllVariablesFixed) {
  // Presolve substitutes every variable; no simplex runs at all.
  Model m;
  m.set_sense(Sense::kMaximize);
  m.add_variable(2.0, 2.0, 3.0);
  m.add_variable(-1.0, -1.0, 5.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kLessEqual, 4.0);
  const Solution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_EQ(sol.iterations, 0);
  EXPECT_NEAR(sol.objective, 1.0, 1e-12);
  ASSERT_EQ(sol.x.size(), 2u);
  EXPECT_NEAR(sol.x[0], 2.0, 1e-12);
  EXPECT_NEAR(sol.x[1], -1.0, 1e-12);
  expect_strong_duality(m, sol, "all-fixed");
  expect_presolve_equivalent(m, "all-fixed vs reference");
}

TEST(PresolveEquivalence, EmptyConstraintRows) {
  // A termless row is satisfied or violated by its rhs alone; presolve
  // drops the satisfied one and proves the violated one infeasible.
  Model ok;
  ok.add_variable(0.0, 5.0, 1.0);
  ok.add_constraint({}, Relation::kLessEqual, 1.0);
  ok.add_constraint({{0, 1.0}}, Relation::kGreaterEqual, 2.0);
  expect_presolve_equivalent(ok, "empty satisfied row");

  Model bad;
  bad.add_variable(0.0, 5.0, 1.0);
  bad.add_constraint({}, Relation::kLessEqual, -1.0);
  const Solution sol = solve_lp(bad);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  expect_presolve_equivalent(bad, "empty violated row");
}

TEST(PresolveEquivalence, FreeSlackColumnAbsorbsRow) {
  // A zero-cost unbounded column alone in one >= row acts as a free
  // surplus: the row is dropped and postsolve reconstructs the column's
  // value from the row it absorbed.
  Model m;
  m.add_variable(0.0, kInfinity, 1.0);   // x0, minimized
  m.add_variable(0.0, kInfinity, 0.0);   // s, free slack
  m.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGreaterEqual, 2.0);
  const Solution sol = solve_lp(m);
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 0.0, 1e-9);
  ASSERT_EQ(sol.x.size(), 2u);
  // x0 = 0 is optimal; the reconstructed s must make the row feasible.
  EXPECT_GE(sol.x[0] + sol.x[1], 2.0 - 1e-9);
  expect_presolve_equivalent(m, "free slack");
}

TEST(PresolveEquivalence, InfeasibleByPropagation) {
  // Bound propagation proves the row unsatisfiable; the verdict arrives
  // with zero simplex iterations.
  Model m;
  m.add_variable(0.0, 1.0, 1.0);
  m.add_variable(0.0, 1.0, 1.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, Relation::kGreaterEqual, 5.0);
  const Solution sol = solve_lp(m);
  EXPECT_EQ(sol.status, SolveStatus::kInfeasible);
  EXPECT_EQ(sol.iterations, 0);
  expect_presolve_equivalent(m, "infeasible by propagation");
}

TEST(PresolveEquivalence, MilpVerdictsMatchPresolveOff) {
  for (int k = 0; k < 50; ++k) {
    const std::uint64_t s = 33000u + static_cast<std::uint64_t>(k);
    const Model m = random_milp(s);
    BranchBoundOptions off;
    off.lp.presolve = false;
    const Solution a = solve_milp(m, {});
    const Solution b = solve_milp(m, off);
    ASSERT_EQ(a.status, b.status) << "seed " << s;
    if (a.status != SolveStatus::kOptimal) continue;
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << "seed " << s;
    EXPECT_TRUE(m.feasible(a.x, 1e-6)) << "seed " << s;
  }
}

TEST(PresolveEquivalence, WarmRestartReportsItsReinversion) {
  // A warm restart reinverts the basis it is handed; through presolve the
  // reduced solve's work counters must reach the caller whole.
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 3);
  TrafficScheduler sched(topo, catalog);
  const Model model = sched.build_schedule_model(small_demands(catalog, 21));
  WarmStart warm;
  const Solution cold = solve_lp(model, {}, &warm);
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  ASSERT_GT(cold.rows_removed, 0) << "presolve left the model as it was";
  const Solution hot = solve_lp(model, {}, &warm);
  ASSERT_TRUE(warm.used);
  ASSERT_EQ(hot.status, SolveStatus::kOptimal);
  EXPECT_GT(hot.rows_removed, 0);
  EXPECT_GE(hot.refactorizations, 1);
}

TEST(PresolveEquivalence, SolutionCarriesPresolveCounters) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 3);
  TrafficScheduler sched(topo, catalog);
  const Model model = sched.build_schedule_model(small_demands(catalog, 21));

  const Solution on = solve_lp(model);
  ASSERT_EQ(on.status, SolveStatus::kOptimal);
  EXPECT_GT(on.rows_removed, 0);
  EXPECT_GT(on.cols_removed, 0);
  EXPECT_GE(on.presolve_us, 0);

  SimplexOptions off_opt;
  off_opt.presolve = false;
  const Solution off = solve_lp(model, off_opt);
  EXPECT_EQ(off.rows_removed, 0);
  EXPECT_EQ(off.cols_removed, 0);
  EXPECT_EQ(off.presolve_us, 0);
}

}  // namespace
}  // namespace bate
