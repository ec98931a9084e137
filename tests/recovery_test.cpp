// Tests for failure recovery (Sec 3.4, Appendix D): the Fig 4 backup
// example, optimal MILP vs greedy (2-approximation property, exact on
// knapsack-like single-bottleneck instances), and the backup planner with
// the rule that picks what brokers enforce for any down set (fn. 6).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
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

// BackupPlanner::enforce over two scheduled demands on testbed6.
struct EnforceRule : ::testing::Test {
  Topology topo = testbed6();
  TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);
  TrafficScheduler scheduler{topo, catalog, SchedulerConfig{}};
  BackupPlanner planner{topo, catalog};
  std::vector<Demand> demands;
  std::vector<Allocation> primaries;
  std::vector<LinkId> loaded;
  std::vector<LinkId> unloaded;

  void SetUp() override {
    demands = {make_demand(1, catalog.pair_index({0, 2}), 400.0, 400.0, 0.1),
               make_demand(2, catalog.pair_index({0, 4}), 500.0, 500.0, 0.1)};
    demands[1].availability_target = 0.95;
    const auto r = scheduler.schedule(demands);
    ASSERT_TRUE(r.feasible);
    primaries = r.alloc;
    const auto usage = link_usage(topo, catalog, demands, primaries);
    for (LinkId e = 0; e < topo.link_count(); ++e) {
      (usage[static_cast<std::size_t>(e)] > 1e-9 ? loaded : unloaded)
          .push_back(e);
    }
    ASSERT_GE(loaded.size(), 2u);
    ASSERT_FALSE(unloaded.empty());
  }

  /// Positive rates `table` puts on tunnels crossing a link in `down`.
  int rates_across(std::span<const Allocation> table,
                   std::span<const Demand> ds,
                   std::span<const LinkId> down) const {
    int n = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      for (std::size_t p = 0; p < ds[i].pairs.size(); ++p) {
        const auto& tunnels = catalog.tunnels(ds[i].pairs[p].pair);
        for (std::size_t t = 0; t < tunnels.size(); ++t) {
          const bool crosses = std::any_of(
              down.begin(), down.end(),
              [&](LinkId e) { return tunnels[t].uses(e); });
          if (crosses && table[i][p][t] > 1e-9) ++n;
        }
      }
    }
    return n;
  }

  /// Expects enforce() with `down` down to be Algorithm 2 over exactly
  /// `down`, with no positive rate across a down link.
  void expect_algorithm2(std::span<const Demand> ds,
                         std::span<const Allocation> alloc,
                         std::span<const LinkId> down) {
    const std::vector<LinkId> links(down.begin(), down.end());
    const std::string where = std::to_string(ds.size()) + " demands, links " +
                              ::testing::PrintToString(links);
    const auto table = planner.enforce(ds, alloc, down);
    EXPECT_EQ(std::vector<Allocation>(table.begin(), table.end()),
              recover_greedy(topo, catalog, ds, down).alloc)
        << where;
    EXPECT_EQ(rates_across(table, ds, down), 0) << where;
  }
};

TEST_F(EnforceRule, NothingDownEnforcesThePrimaries) {
  const auto table = planner.enforce(demands, primaries, {});
  EXPECT_EQ(table.data(), primaries.data());
  EXPECT_EQ(table.size(), primaries.size());
}

TEST_F(EnforceRule, OnlyUnloadedLinksDownEnforceThePrimaries) {
  for (const LinkId e : unloaded) {
    const LinkId one[] = {e};
    EXPECT_EQ(planner.enforce(demands, primaries, one).data(),
              primaries.data())
        << "link " << e;
  }
  EXPECT_EQ(planner.enforce(demands, primaries, unloaded).data(),
            primaries.data());
}

TEST_F(EnforceRule, OneLoadedLinkIsItsPrecomputedPlan) {
  // enforce() looks no plan up: a planner that never precomputed returns,
  // for each single loaded link, the Fig 4 plan precompute() makes for it.
  BackupPlanner fig4(topo, catalog);
  fig4.precompute(demands, primaries);
  for (const LinkId e : loaded) {
    const RecoveryResult* plan = fig4.plan(e);
    ASSERT_NE(plan, nullptr) << "link " << e;
    const LinkId one[] = {e};
    const auto table = planner.enforce(demands, primaries, one);
    EXPECT_EQ(std::vector<Allocation>(table.begin(), table.end()),
              plan->alloc)
        << "link " << e;
    expect_algorithm2(demands, primaries, one);
  }
}

TEST_F(EnforceRule, TwoLoadedLinksRunAlgorithm2OverExactlyThePair) {
  for (std::size_t a = 0; a < loaded.size(); ++a) {
    for (std::size_t b = a + 1; b < loaded.size(); ++b) {
      const LinkId two[] = {loaded[a], loaded[b]};
      expect_algorithm2(demands, primaries, two);
    }
  }
  // A loaded link down with an unloaded one is planned over both.
  for (const LinkId e : loaded) {
    for (const LinkId u : unloaded) {
      const LinkId two[] = {e, u};
      expect_algorithm2(demands, primaries, two);
    }
  }
}

TEST_F(EnforceRule, DemandSetPrecomputeNeverSawIsPlannedOnTheSpot) {
  // The planner's Fig 4 table holds the two scheduled demands; enforce()
  // over a grown set with its own primaries ignores it. Every down set of
  // one or two links with a link the grown set loads.
  planner.precompute(demands, primaries);
  std::vector<Demand> grown = demands;
  grown.push_back(make_demand(3, catalog.pair_index({1, 3}), 300.0, 300.0,
                              0.1));
  const auto r = scheduler.schedule(grown);
  ASSERT_TRUE(r.feasible);
  const auto usage = link_usage(topo, catalog, grown, r.alloc);
  const auto is_loaded = [&](LinkId e) {
    return usage[static_cast<std::size_t>(e)] > 1e-9;
  };
  int checked = 0;
  for (LinkId a = 0; a < topo.link_count(); ++a) {
    if (is_loaded(a)) {
      ++checked;
      const LinkId one[] = {a};
      expect_algorithm2(grown, r.alloc, one);
    }
    for (LinkId b = a + 1; b < topo.link_count(); ++b) {
      if (!is_loaded(a) && !is_loaded(b)) continue;
      const LinkId two[] = {a, b};
      expect_algorithm2(grown, r.alloc, two);
    }
  }
  EXPECT_GT(checked, 0);
}

}  // namespace
}  // namespace bate
