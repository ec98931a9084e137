// Tests for BATE traffic scheduling (Sec 3.3): the Fig 2 motivating example
// as an acceptance test, capacity/feasibility behaviour, pruning
// monotonicity, hard-repair, and property checks over random workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/scheduling.h"
#include "topology/catalog.h"
#include "topology/generator.h"
#include "workload/demand_gen.h"

namespace bate {
namespace {

Demand make_demand(DemandId id, int pair, double mbps, double beta) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  d.availability_target = beta;
  d.charge = mbps;
  return d;
}

struct Toy4Fixture {
  Topology topo = toy4();
  TunnelCatalog catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{0, 3}}, 2);
  // Tunnel order: KSP returns both 2-hop paths; identify which is which.
  int via_dc2 = -1;  // e1,e2 path (availability ~0.96)
  int via_dc3 = -1;  // e3,e4 path (availability ~0.999)

  Toy4Fixture() {
    const auto& tunnels = catalog.tunnels(0);
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      if (tunnels[t].uses(topo.find_link(0, 1))) via_dc2 = static_cast<int>(t);
      if (tunnels[t].uses(topo.find_link(0, 2))) via_dc3 = static_cast<int>(t);
    }
  }
};

TEST(Scheduling, Fig2MotivatingExample) {
  Toy4Fixture fx;
  ASSERT_GE(fx.via_dc2, 0);
  ASSERT_GE(fx.via_dc3, 0);

  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  // user1: 6 Gbps at 99 %; user2: 12 Gbps at 90 %.
  const std::vector<Demand> demands = {make_demand(0, 0, 6000.0, 0.99),
                                       make_demand(1, 0, 12000.0, 0.90)};
  const ScheduleResult r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);

  // Fig 2(d): user1 entirely on the reliable path via DC3; user2 10G via
  // DC2 + 2G via DC3. Availability targets must hold in the HARD sense.
  const double a1 =
      achieved_availability(fx.topo, fx.catalog, demands[0], r.alloc[0]);
  const double a2 =
      achieved_availability(fx.topo, fx.catalog, demands[1], r.alloc[1]);
  EXPECT_GE(a1 + 1e-9, 0.99) << "user1 availability " << a1;
  EXPECT_GE(a2 + 1e-9, 0.90) << "user2 availability " << a2;

  // user1 gets its 6G on the DC3 path (the only way to reach 99 %).
  EXPECT_NEAR(r.alloc[0][0][static_cast<std::size_t>(fx.via_dc3)], 6000.0,
              1.0);
  EXPECT_NEAR(r.alloc[0][0][static_cast<std::size_t>(fx.via_dc2)], 0.0, 1.0);
  // user2 must span both paths for its 12G (the paper's Fig 2d shows
  // 10G + 2G; any split summing to 12G with both paths in use is an
  // equivalent optimum of the LP).
  const double u2_dc2 = r.alloc[1][0][static_cast<std::size_t>(fx.via_dc2)];
  const double u2_dc3 = r.alloc[1][0][static_cast<std::size_t>(fx.via_dc3)];
  EXPECT_NEAR(u2_dc2 + u2_dc3, 12000.0, 1.0);
  EXPECT_GE(u2_dc2, 2000.0 - 1.0);  // DC3 path can spare at most 4G
  EXPECT_LE(u2_dc3, 4000.0 + 1.0);
  // Total allocation matches the paper's 18G (no overprovisioning).
  EXPECT_NEAR(r.total_allocated_mbps, 18000.0, 2.0);
}

TEST(Scheduling, InfeasibleWhenCapacityExceeded) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  const std::vector<Demand> demands = {make_demand(0, 0, 25000.0, 0.5)};
  const ScheduleResult r = scheduler.schedule(demands);
  EXPECT_FALSE(r.feasible);
  EXPECT_EQ(r.status, SolveStatus::kInfeasible);
}

TEST(Scheduling, InfeasibleWhenAvailabilityUnreachable) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  // 99.9999% target: even both paths together only reach ~0.99994.
  const std::vector<Demand> demands = {make_demand(0, 0, 100.0, 0.999999)};
  const ScheduleResult r = scheduler.schedule(demands);
  EXPECT_FALSE(r.feasible);
}

TEST(Scheduling, BestEffortDemandGetsBandwidthOnly) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  const std::vector<Demand> demands = {make_demand(0, 0, 5000.0, 0.0)};
  const ScheduleResult r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);
  double total = 0.0;
  for (double f : r.alloc[0][0]) total += f;
  EXPECT_GE(total, 5000.0 - 1.0);
}

TEST(Scheduling, RespectsCapacityOverride) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  std::vector<double> residual(static_cast<std::size_t>(fx.topo.link_count()),
                               1000.0);
  const std::vector<Demand> demands = {make_demand(0, 0, 1500.0, 0.5)};
  const ScheduleResult r = scheduler.schedule(demands, residual);
  ASSERT_TRUE(r.feasible);  // 1500 fits across two 1000-capacity paths
  const auto usage =
      link_usage(fx.topo, fx.catalog, demands, r.alloc);
  for (LinkId e = 0; e < fx.topo.link_count(); ++e) {
    EXPECT_LE(usage[static_cast<std::size_t>(e)], 1000.0 + 1e-6);
  }
}

TEST(Scheduling, HardRepairClosesRelaxationGap) {
  Toy4Fixture fx;
  // Without the reliability tie-break and repair, the LP may split user1
  // across both paths and violate the hard guarantee.
  SchedulerConfig loose;
  loose.reliability_epsilon = 0.0;
  loose.hard_repair = false;
  SchedulerConfig strict;  // defaults: tie-break + repair on

  const std::vector<Demand> demands = {make_demand(0, 0, 6000.0, 0.99)};
  TrafficScheduler strict_sched(fx.topo, fx.catalog, strict);
  const ScheduleResult r = strict_sched.schedule(demands);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(
      achieved_availability(fx.topo, fx.catalog, demands[0], r.alloc[0]) +
          1e-9,
      0.99);
}

TEST(Scheduling, PrunedAllocatesNoLessThanExact) {
  // Pruning treats the residual as unqualified, so the pruned LP must
  // allocate at least as much bandwidth as the exact one (Fig 16's loss).
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build(
      topo, std::vector<SdPair>{{0, 2}, {0, 3}, {0, 4}}, 4);
  std::vector<Demand> demands = {make_demand(0, 0, 400.0, 0.995),
                                 make_demand(1, 1, 300.0, 0.999),
                                 make_demand(2, 2, 500.0, 0.95)};

  SchedulerConfig exact_cfg;
  exact_cfg.max_failures = topo.link_count();
  SchedulerConfig pruned_cfg;
  pruned_cfg.max_failures = 1;

  TrafficScheduler exact_s(topo, catalog, exact_cfg);
  TrafficScheduler pruned_s(topo, catalog, pruned_cfg);
  const auto exact_r = exact_s.schedule(demands);
  const auto pruned_r = pruned_s.schedule(demands);
  ASSERT_TRUE(exact_r.feasible);
  ASSERT_TRUE(pruned_r.feasible);
  EXPECT_GE(pruned_r.total_allocated_mbps + 1e-6,
            exact_r.total_allocated_mbps);
}

TEST(Scheduling, MultiPairDemand) {
  const Topology topo = testbed6();
  const auto catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{0, 2}, {0, 4}}, 3);
  Demand d;
  d.id = 0;
  d.pairs = {{0, 300.0}, {1, 200.0}};
  d.availability_target = 0.99;
  TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const std::vector<Demand> demands = {d};
  const ScheduleResult r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);
  ASSERT_EQ(r.alloc[0].size(), 2u);
  double p0 = 0.0;
  double p1 = 0.0;
  for (double f : r.alloc[0][0]) p0 += f;
  for (double f : r.alloc[0][1]) p1 += f;
  EXPECT_GE(p0, 300.0 - 1e-3);
  EXPECT_GE(p1, 200.0 - 1e-3);
  EXPECT_GE(achieved_availability(topo, catalog, d, r.alloc[0]) + 1e-9, 0.99);
}

TEST(Scheduling, ThrowsOnUnknownPair) {
  Toy4Fixture fx;
  TrafficScheduler scheduler(fx.topo, fx.catalog, SchedulerConfig{});
  const std::vector<Demand> demands = {make_demand(0, 7, 100.0, 0.9)};
  EXPECT_THROW(scheduler.schedule(demands), std::out_of_range);
}

// Property sweep: on random workloads the schedule must satisfy capacity
// and deliver full bandwidth for every demand; hard availability must meet
// the target whenever the LP+repair report feasibility and repair succeeds.
class SchedulingProperty : public ::testing::TestWithParam<int> {};

TEST_P(SchedulingProperty, CapacityAndBandwidthInvariants) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);

  WorkloadConfig wcfg;
  wcfg.arrival_rate_per_min = 1.0;
  wcfg.horizon_min = 10.0;
  wcfg.mean_duration_min = 20.0;
  wcfg.bw_min_mbps = 10.0;
  wcfg.bw_max_mbps = 60.0;
  wcfg.seed = 3000 + static_cast<std::uint64_t>(GetParam());
  auto demands = generate_demands(catalog, wcfg);
  if (demands.size() > 10) demands.resize(10);
  if (demands.empty()) GTEST_SKIP();

  TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const ScheduleResult r = scheduler.schedule(demands);
  if (!r.feasible) GTEST_SKIP();  // availability targets can be unreachable

  const auto usage = link_usage(topo, catalog, demands, r.alloc);
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    EXPECT_LE(usage[static_cast<std::size_t>(e)],
              topo.link(e).capacity + 1e-4);
  }
  for (std::size_t i = 0; i < demands.size(); ++i) {
    for (std::size_t p = 0; p < demands[i].pairs.size(); ++p) {
      double total = 0.0;
      for (double f : r.alloc[i][p]) total += f;
      EXPECT_GE(total + 1e-4, demands[i].pairs[p].mbps)
          << "demand " << i << " pair " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingProperty, ::testing::Range(0, 10));

// The capability table behind the hard-repair screen: entry S of a pair
// must equal the max flow of a model holding only the pattern's up
// tunnels; zero-probability patterns stay unsolved (-1).
TEST(Scheduling, PatternCapabilityMatchesDirectMaxFlow) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});

  int solved = 0;
  for (int pair = 0; pair < catalog.pair_count(); ++pair) {
    const auto& tunnels = catalog.tunnels(pair);
    const PatternDistribution& dist = scheduler.lp_patterns(pair);
    const std::vector<double>& cap = scheduler.pattern_capability(pair);
    ASSERT_EQ(cap.size(), dist.prob.size()) << "pair " << pair;
    ASSERT_FALSE(cap.empty());
    EXPECT_EQ(cap[0], 0.0) << "pair " << pair;
    for (PatternMask s = 1; s < static_cast<PatternMask>(cap.size()); ++s) {
      if (dist.prob[s] <= 0.0) {
        EXPECT_EQ(cap[s], -1.0) << "pair " << pair << " pattern " << s;
        continue;
      }
      std::vector<Tunnel> up;
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if ((s >> t) & 1u) up.push_back(tunnels[t]);
      }
      Model flow;
      flow.set_sense(Sense::kMaximize);
      for (std::size_t t = 0; t < up.size(); ++t) {
        flow.add_variable(0.0, kInfinity, 1.0);
      }
      for (const LinkId e : tunnel_link_union(up)) {
        std::vector<Term> row;
        for (std::size_t t = 0; t < up.size(); ++t) {
          if (up[t].uses(e)) row.push_back({static_cast<int>(t), 1.0});
        }
        flow.add_constraint(std::move(row), Relation::kLessEqual,
                            topo.link(e).capacity);
      }
      const Solution want = solve_lp(flow);
      ASSERT_EQ(want.status, SolveStatus::kOptimal)
          << "pair " << pair << " pattern " << s;
      EXPECT_NEAR(cap[s], want.objective,
                  1e-6 * std::max(1.0, std::abs(want.objective)))
          << "pair " << pair << " pattern " << s;
      ++solved;
    }
  }
  EXPECT_GT(solved, 0);
}

}  // namespace
}  // namespace bate
