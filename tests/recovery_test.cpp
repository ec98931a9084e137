// Tests for failure recovery (Sec 3.4, Appendix D): the Fig 4 backup
// example, optimal MILP vs greedy (2-approximation property, exact on
// knapsack-like single-bottleneck instances), and the backup planner with
// its concurrent-pair extension (fn. 6).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/pricing.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "topology/catalog.h"
#include "util/rng.h"
#include "workload/demand_gen.h"

namespace bate {
namespace {

Demand make_demand(DemandId id, int pair, double mbps, double charge,
                   double refund) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  d.availability_target = 0.99;
  d.charge = charge;
  d.refund_fraction = refund;
  return d;
}

TEST(Pricing, RefundModel) {
  Demand d;
  d.charge = 100.0;
  d.refund_fraction = 0.25;
  EXPECT_DOUBLE_EQ(demand_profit(d, true), 100.0);
  EXPECT_DOUBLE_EQ(demand_profit(d, false), 75.0);
}

TEST(Recovery, Fig4BackupAllocation) {
  // Fig 4: square, unit capacities; one demand DC1->DC2 (1 unit), one
  // demand DC1->DC4 (1 unit). When link DC2->DC4 fails... the example in
  // the paper fails DC2->DC4 and reroutes DC1->DC4 over DC3. Here both
  // demands must keep full profit after the failure.
  const Topology topo = square4();
  const auto catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{0, 1}, {0, 3}}, 3);
  const std::vector<Demand> demands = {make_demand(0, 0, 1.0, 1.0, 0.1),
                                       make_demand(1, 1, 1.0, 1.0, 0.1)};
  const LinkId failed[] = {topo.find_link(1, 3)};  // DC2->DC4
  const RecoveryResult greedy =
      recover_greedy(topo, catalog, demands, failed);
  ASSERT_TRUE(greedy.solved);
  EXPECT_EQ(greedy.full_profit[0], 1);
  EXPECT_EQ(greedy.full_profit[1], 1);
  EXPECT_DOUBLE_EQ(greedy.profit, 2.0);
  // The rerouted DC1->DC4 demand must not traverse the failed link.
  const auto& tunnels = catalog.tunnels(1);
  for (std::size_t t = 0; t < tunnels.size(); ++t) {
    if (greedy.alloc[1][0][t] > 0.0) {
      EXPECT_FALSE(tunnels[t].uses(failed[0]));
    }
  }
}

TEST(Recovery, OptimalMatchesGreedyOnEasyCase) {
  const Topology topo = square4();
  const auto catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{0, 1}, {0, 3}}, 3);
  const std::vector<Demand> demands = {make_demand(0, 0, 1.0, 1.0, 0.5),
                                       make_demand(1, 1, 1.0, 1.0, 0.5)};
  const LinkId failed[] = {topo.find_link(1, 3)};
  const auto opt = recover_optimal(topo, catalog, demands, failed);
  const auto greedy = recover_greedy(topo, catalog, demands, failed);
  ASSERT_TRUE(opt.solved);
  EXPECT_NEAR(opt.profit, greedy.profit, 1e-6);
}

TEST(Recovery, OptimalPrefersHighRefundDemands) {
  // One unit of bottleneck capacity, two demands; only one can be made
  // whole. The optimal recovery must protect the one whose refund is
  // larger (mu * g dominates the objective).
  Topology topo("line");
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  topo.add_link(a, b, 1.0, 0.001);
  const auto catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{a, b}}, 1);
  std::vector<Demand> demands = {make_demand(0, 0, 1.0, 10.0, 0.1),
                                 make_demand(1, 0, 1.0, 10.0, 0.9)};
  const RecoveryResult opt = recover_optimal(topo, catalog, demands, {});
  ASSERT_TRUE(opt.solved);
  EXPECT_EQ(opt.full_profit[1], 1);  // the mu=0.9 demand keeps full profit
  EXPECT_EQ(opt.full_profit[0], 0);
  EXPECT_NEAR(opt.profit, 10.0 + 9.0, 1e-6);
}

TEST(Recovery, GreedyIsTwoApproxOnKnapsackInstances) {
  // Single bottleneck link (the regime of the Lemma-2 proof) with mu = 1:
  // profit reduces to the all-or-nothing knapsack value.
  Topology topo("line");
  const NodeId a = topo.add_node();
  const NodeId b = topo.add_node();
  topo.add_link(a, b, 10.0, 0.001);
  const auto catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{a, b}}, 1);

  Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Demand> demands;
    const int n = 3 + rng.uniform_int(0, 4);
    for (int i = 0; i < n; ++i) {
      demands.push_back(make_demand(i, 0, rng.uniform(1.0, 6.0),
                                    rng.uniform(1.0, 10.0), 1.0));
    }
    const auto opt = recover_optimal(topo, catalog, demands, {});
    const auto greedy = recover_greedy(topo, catalog, demands, {});
    ASSERT_TRUE(opt.solved);
    EXPECT_GE(greedy.profit * 2.0 + 1e-6, opt.profit)
        << "trial " << trial << ": greedy " << greedy.profit << " opt "
        << opt.profit;
  }
}

class RecoveryRatio : public ::testing::TestWithParam<int> {};

TEST_P(RecoveryRatio, GreedyStaysWithinTwoOfOptimalOnTestbed) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);

  WorkloadConfig cfg;
  cfg.arrival_rate_per_min = 1.5;
  cfg.horizon_min = 6.0;
  cfg.mean_duration_min = 60.0;
  cfg.bw_min_mbps = 50.0;
  cfg.bw_max_mbps = 300.0;
  cfg.services = testbed_services();
  cfg.seed = 5000 + static_cast<std::uint64_t>(GetParam());
  auto demands = generate_demands(catalog, cfg);
  if (demands.size() > 7) demands.resize(7);
  if (demands.empty()) GTEST_SKIP();

  const LinkId failed[] = {
      testbed_link(topo, GetParam() % 2 == 0 ? "L4" : "L1")};
  BranchBoundOptions bnb;
  bnb.node_limit = 20000;
  const auto opt = recover_optimal(topo, catalog, demands, failed, bnb);
  const auto greedy = recover_greedy(topo, catalog, demands, failed);
  if (!opt.solved) GTEST_SKIP();
  EXPECT_GE(greedy.profit * 2.0 + 1e-6, opt.profit) << "seed " << GetParam();
  EXPECT_LE(greedy.profit, opt.profit + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryRatio, ::testing::Range(0, 12));

TEST(Recovery, AllocationsAvoidFailedLinksAndCapacity) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  WorkloadConfig cfg;
  cfg.arrival_rate_per_min = 2.0;
  cfg.horizon_min = 5.0;
  cfg.mean_duration_min = 60.0;
  cfg.seed = 8;
  auto demands = generate_demands(catalog, cfg);
  if (demands.size() > 10) demands.resize(10);
  const LinkId failed[] = {testbed_link(topo, "L4"),
                           testbed_link(topo, "L6")};
  const auto rec = recover_greedy(topo, catalog, demands, failed);

  const auto usage = link_usage(topo, catalog, demands, rec.alloc);
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    EXPECT_LE(usage[static_cast<std::size_t>(e)],
              topo.link(e).capacity + 1e-6);
  }
  EXPECT_NEAR(usage[static_cast<std::size_t>(failed[0])], 0.0, 1e-9);
  EXPECT_NEAR(usage[static_cast<std::size_t>(failed[1])], 0.0, 1e-9);
}

TEST(BackupPlanner, PrecomputesPlansForLoadedLinks) {
  const Topology topo = square4();
  const auto catalog =
      TunnelCatalog::build(topo, std::vector<SdPair>{{0, 1}, {0, 3}}, 3);
  const std::vector<Demand> demands = {make_demand(0, 0, 1.0, 1.0, 0.1),
                                       make_demand(1, 1, 1.0, 1.0, 0.1)};
  TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const auto r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);

  BackupPlanner planner(topo, catalog);
  planner.precompute(demands, r.alloc);
  EXPECT_GT(planner.plan_count(), 0u);
  // Every loaded link must have a plan; unloaded links must not.
  const auto usage = link_usage(topo, catalog, demands, r.alloc);
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    if (usage[static_cast<std::size_t>(e)] > 1e-9) {
      EXPECT_NE(planner.plan(e), nullptr) << "link " << e;
    } else {
      EXPECT_EQ(planner.plan(e), nullptr) << "link " << e;
    }
  }
}

// BackupPlanner(concurrent_pairs) plans the riskiest loaded link pairs on
// top of the single links; plan_for takes an exact pair match where one was
// planned and falls back to the single-link plan of the most failure-prone
// member otherwise.
TEST(BackupPlannerExtension, ConcurrentPairPlansAreUsed) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  std::vector<Demand> demands(2);
  demands[0].id = 1;
  demands[0].pairs = {{catalog.pair_index({0, 2}), 400.0}};
  demands[0].availability_target = 0.99;
  demands[0].charge = 400.0;
  demands[1].id = 2;
  demands[1].pairs = {{catalog.pair_index({0, 4}), 500.0}};
  demands[1].availability_target = 0.95;
  demands[1].charge = 500.0;
  const auto r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);

  BackupPlanner single(topo, catalog, 0);
  BackupPlanner pairs(topo, catalog, 8);
  single.precompute(demands, r.alloc);
  pairs.precompute(demands, r.alloc);
  EXPECT_GT(pairs.plan_count(), single.plan_count());

  // plan_for: exact pair match where planned, single-link fallback else.
  std::vector<LinkId> loaded;
  const auto usage = link_usage(topo, catalog, demands, r.alloc);
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    if (usage[static_cast<std::size_t>(e)] > 1e-9) loaded.push_back(e);
  }
  ASSERT_GE(loaded.size(), 2u);
  const LinkId two[] = {loaded[0], loaded[1]};
  EXPECT_NE(pairs.plan_for(two), nullptr);
  EXPECT_NE(single.plan_for(two), nullptr);  // falls back to single plan
  EXPECT_EQ(single.plan_for({}), nullptr);
}

}  // namespace
}  // namespace bate
