// Cross-cutting integration and equivalence tests.
//
//  * The pattern-projected scheduling LP must match the paper's LITERAL
//    formulation (one B^z variable per enumerated scenario z, eqs. 1-7)
//    on small networks — the projection is claimed to be exact.
//  * An end-to-end pipeline run: workload -> admission -> scheduling ->
//    failure -> recovery -> profit, with BATE dominating TEAVAR on
//    satisfaction under identical demands.
#include <gtest/gtest.h>

#include "baselines/teavar.h"
#include "core/admission.h"
#include "core/bate_scheme.h"
#include "core/pricing.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "scenario/scenario.h"
#include "sim/experiment.h"
#include "solver/simplex.h"
#include "topology/catalog.h"
#include "topology/generator.h"
#include "workload/demand_gen.h"

namespace bate {
namespace {

/// The paper's literal scheduling LP over an enumerated scenario set:
/// minimize sum f, s.t. (1) full bandwidth, (3) B^z <= R^z_dk per scenario,
/// (4) sum_z p_z B^z >= beta, (6) capacity. Returns the optimal objective.
double literal_scenario_lp(const Topology& topo, const TunnelCatalog& catalog,
                           std::span<const Demand> demands, int y) {
  const auto scenarios = ScenarioSet::enumerate(topo, y);
  Model model;
  model.set_sense(Sense::kMinimize);

  std::vector<int> first_var(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    first_var[i] = model.variable_count();
    const auto& tunnels = catalog.tunnels(d.pairs[0].pair);
    std::vector<Term> full;
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      full.push_back({model.add_variable(0.0, kInfinity, d.pairs[0].mbps), 1.0});
    }
    model.add_constraint(std::move(full), Relation::kGreaterEqual, 1.0);
  }
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    if (d.availability_target <= 0.0) continue;
    const auto& tunnels = catalog.tunnels(d.pairs[0].pair);
    std::vector<Term> avail;
    const double scale = availability_row_scale(d.availability_target);
    for (const Scenario& z : scenarios.scenarios()) {
      const int b = model.add_variable(0.0, 1.0, 0.0);
      avail.push_back({b, z.prob * scale});
      std::vector<Term> row{{b, 1.0}};
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (z.tunnel_up(tunnels[t])) {
          row.push_back({first_var[i] + static_cast<int>(t), -1.0});
        }
      }
      model.add_constraint(std::move(row), Relation::kLessEqual, 0.0);
    }
    model.add_constraint(std::move(avail), Relation::kGreaterEqual,
                         d.availability_target * scale);
  }
  std::vector<std::vector<Term>> rows(
      static_cast<std::size_t>(topo.link_count()));
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    const auto& tunnels = catalog.tunnels(d.pairs[0].pair);
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      for (LinkId e : tunnels[t].links) {
        rows[static_cast<std::size_t>(e)].push_back(
            {first_var[i] + static_cast<int>(t), d.pairs[0].mbps});
      }
    }
  }
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    auto& row = rows[static_cast<std::size_t>(e)];
    if (row.empty()) continue;
    for (Term& term : row) term.coef /= topo.link(e).capacity;
    model.add_constraint(std::move(row), Relation::kLessEqual, 1.0);
  }
  const Solution sol = solve_lp(model);
  EXPECT_EQ(sol.status, SolveStatus::kOptimal);
  double total = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const auto& tunnels = catalog.tunnels(demands[i].pairs[0].pair);
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      total += sol.x[static_cast<std::size_t>(first_var[i] +
                                              static_cast<int>(t))] *
               demands[i].pairs[0].mbps;
    }
  }
  return total;
}

Demand make_demand(DemandId id, int pair, double mbps, double beta) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  d.availability_target = beta;
  d.charge = mbps;
  d.refund_fraction = 0.25;
  return d;
}

class ProjectionEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ProjectionEquivalence, ProjectedLpMatchesLiteralScenarioLp) {
  GeneratorConfig cfg;
  cfg.nodes = 5;
  cfg.directed_links = 14;
  cfg.seed = 7700 + static_cast<std::uint64_t>(GetParam() / 2);
  const Topology topo = generate_topology(cfg, "tiny");
  const std::vector<SdPair> pairs = {{0, 2}, {1, 3}};
  const auto catalog = TunnelCatalog::build(topo, pairs, 3);

  Rng rng(100 + static_cast<std::uint64_t>(GetParam()));
  std::vector<Demand> demands;
  for (int i = 0; i < 3; ++i) {
    demands.push_back(make_demand(i, i % 2, rng.uniform(100.0, 600.0),
                                  rng.uniform(0.5, 0.95)));
  }
  const int y = 1 + GetParam() % 2;

  // Projected LP, with the tie-break and repair disabled so both sides
  // solve the identical mathematical program.
  SchedulerConfig sc;
  sc.max_failures = y;
  sc.reliability_epsilon = 0.0;
  sc.hard_repair = false;
  const TrafficScheduler scheduler(topo, catalog, sc);
  const auto projected = scheduler.schedule(demands);
  if (!projected.feasible) GTEST_SKIP();

  const double literal = literal_scenario_lp(topo, catalog, demands, y);
  EXPECT_NEAR(projected.total_allocated_mbps, literal,
              1e-4 * std::max(1.0, literal))
      << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionEquivalence, ::testing::Range(0, 10));

TEST(Pipeline, EndToEndBateFlow) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  AdmissionController admission(scheduler, AdmissionStrategy::kBate);

  WorkloadConfig wl;
  wl.arrival_rate_per_min = 2.0;
  wl.horizon_min = 10.0;
  wl.mean_duration_min = 30.0;
  wl.bw_min_mbps = 80.0;
  wl.bw_max_mbps = 300.0;
  wl.services = testbed_services();
  wl.seed = 77;
  const auto demands = generate_demands(catalog, wl);

  int admitted = 0;
  for (const Demand& d : demands) admitted += admission.offer(d).admitted;
  ASSERT_GT(admitted, 0);
  ASSERT_TRUE(admission.reschedule());

  // Every admitted demand meets its hard availability target.
  const auto& set = admission.admitted();
  const auto& allocs = admission.allocations();
  for (std::size_t i = 0; i < set.size(); ++i) {
    EXPECT_GE(achieved_availability(scheduler.topology(), scheduler.catalog(),
                                    set[i], allocs[i]) +
                  1e-9,
              set[i].availability_target)
        << "demand " << set[i].id;
  }

  // Fail the flakiest link; recovery must keep capacity bounds and profit
  // at least at the refunded floor.
  const LinkId failed[] = {testbed_link(topo, "L4")};
  const auto rec = recover_greedy(topo, catalog, set, failed);
  double floor = 0.0;
  for (const Demand& d : set) floor += (1.0 - d.refund_fraction) * d.charge;
  EXPECT_GE(rec.profit + 1e-9, floor);
  EXPECT_LE(rec.profit, full_profit(set) + 1e-9);
}

TEST(Pipeline, BateDominatesTeavarOnHeterogeneousTargets) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const BateScheme bate(scheduler);
  const TeavarScheme teavar(topo, catalog, 0.999);

  WorkloadConfig wl;
  wl.arrival_rate_per_min = 3.0;
  wl.horizon_min = 30.0;
  wl.mean_duration_min = 10.0;
  wl.bw_min_mbps = 80.0;
  wl.bw_max_mbps = 300.0;
  wl.seed = 88;
  auto demands = steady_state_snapshot(catalog, wl, 15.0);
  if (demands.size() > 15) demands.resize(15);
  ASSERT_FALSE(demands.empty());

  const auto eb = evaluate_te(topo, bate, demands, true);
  const auto et = evaluate_te(topo, teavar, demands, false);
  EXPECT_GE(eb.satisfaction_fraction + 1e-9, et.satisfaction_fraction);
}

}  // namespace
}  // namespace bate
