// Tests for ControlPlane (core/control_plane.h), the event sequence the
// controller, the testbed simulator and bate_plan share: what each event
// runs, what it leaves unchanged, and that enforced() is the one enforce
// rule over the class's own state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/control_plane.h"
#include "obs/metrics.h"
#include "topology/catalog.h"

namespace bate {
namespace {

std::int64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

Demand make_demand(DemandId id, int pair, double mbps, double beta) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  d.availability_target = beta;
  d.charge = mbps;
  return d;
}

struct ControlPlaneFixture : ::testing::Test {
  Topology topo = testbed6();
  TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);
  TrafficScheduler scheduler{topo, catalog, SchedulerConfig{}};
  std::vector<Demand> demands = {
      make_demand(1, catalog.pair_index({0, 2}), 400.0, 0.99),
      make_demand(2, catalog.pair_index({0, 4}), 500.0, 0.95)};
};

TEST_F(ControlPlaneFixture, AdmitRunsOneRoundAndNoPrecompute) {
  ControlPlane cp(scheduler, AdmissionStrategy::kBate);
  const std::int64_t rounds0 = counter("bate_scheduler_rounds_total");
  const std::int64_t plans0 = counter("bate_recovery_precompute_total");
  const BatchAdmissionOutcome out = cp.admit(demands);
  ASSERT_EQ(out.outcomes.size(), 2u);
  EXPECT_TRUE(out.outcomes[0].admitted && out.outcomes[1].admitted);
  EXPECT_TRUE(out.rescheduled);
  EXPECT_EQ(counter("bate_scheduler_rounds_total"), rounds0 + 1);
  EXPECT_EQ(counter("bate_recovery_precompute_total"), plans0);
  // The round's allocations are the scheduler's over the admitted set.
  const ScheduleResult r = scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);
  EXPECT_EQ(cp.primaries(), r.alloc);
}

TEST_F(ControlPlaneFixture, GatedOffAdmitKeepsGreedyRowsAndNoPlans) {
  ControlPlane cp(scheduler, AdmissionStrategy::kBate,
                  /*reschedule_after_batch=*/false);
  const std::int64_t rounds0 = counter("bate_scheduler_rounds_total");
  const std::int64_t plans0 = counter("bate_recovery_precompute_total");
  const BatchAdmissionOutcome out = cp.admit(demands);
  EXPECT_FALSE(out.rescheduled);
  EXPECT_EQ(out.first_new_index, 0u);
  EXPECT_EQ(cp.admitted().size(), 2u);
  EXPECT_EQ(counter("bate_scheduler_rounds_total"), rounds0);
  EXPECT_EQ(counter("bate_recovery_precompute_total"), plans0);
}

TEST_F(ControlPlaneFixture, WithdrawRemovesOnlyAdmittedIds) {
  ControlPlane cp(scheduler, AdmissionStrategy::kBate);
  cp.admit(demands);
  const std::vector<Allocation> before = cp.primaries();
  const DemandId unknown[] = {7};
  EXPECT_TRUE(cp.withdraw(unknown).empty());
  EXPECT_EQ(cp.primaries(), before);

  const DemandId ids[] = {7, 1};
  const std::vector<Demand> removed = cp.withdraw(ids);
  ASSERT_EQ(removed.size(), 1u);
  EXPECT_EQ(removed[0], demands[0]);
  ASSERT_EQ(cp.admitted().size(), 1u);
  EXPECT_EQ(cp.admitted()[0].id, 2);
}

TEST_F(ControlPlaneFixture, EnforcedIsTheEnforceRuleOverTheDownSet) {
  ControlPlane cp(scheduler, AdmissionStrategy::kBate);
  cp.admit(demands);
  EXPECT_EQ(cp.enforced().data(), cp.primaries().data());

  const auto usage = link_usage(topo, catalog, cp.admitted(), cp.primaries());
  std::vector<LinkId> loaded;
  for (LinkId e = 0; e < topo.link_count(); ++e) {
    if (usage[static_cast<std::size_t>(e)] > 1e-9) loaded.push_back(e);
  }
  ASSERT_GE(loaded.size(), 2u);
  cp.link(loaded[1], false);
  cp.link(loaded[0], false);
  cp.link(loaded[0], false);
  EXPECT_EQ(cp.down(), (std::vector<LinkId>{loaded[0], loaded[1]}));

  const auto table = cp.enforced();
  EXPECT_EQ(std::vector<Allocation>(table.begin(), table.end()),
            recover_greedy(topo, catalog, cp.admitted(), cp.down()).alloc);

  cp.link(loaded[1], true);
  cp.link(loaded[0], true);
  EXPECT_TRUE(cp.down().empty());
  EXPECT_EQ(cp.enforced().data(), cp.primaries().data());
}

TEST_F(ControlPlaneFixture, SetPrimariesFeedsTheNextVerdicts) {
  // A foreign allocation that fills every tunnel of the pair leaves no
  // residual, so the next demand on that pair fails the fixed step.
  ControlPlane cp(scheduler, AdmissionStrategy::kFixed);
  const Demand first = make_demand(1, catalog.pair_index({0, 2}), 100.0, 0.0);
  ASSERT_TRUE(cp.admit({&first, 1}).outcomes[0].admitted);
  Allocation flood(1);
  for (const Tunnel& t : catalog.tunnels(first.pairs[0].pair)) {
    double cap = kInfinity;
    for (const LinkId e : t.links) cap = std::min(cap, topo.link(e).capacity);
    flood[0].push_back(cap);
  }
  cp.set_primaries({flood});
  EXPECT_EQ(cp.primaries()[0], flood);
  const Demand second = make_demand(2, catalog.pair_index({0, 2}), 100.0, 0.0);
  EXPECT_FALSE(cp.admit({&second, 1}).outcomes[0].admitted);
}

}  // namespace
}  // namespace bate
