// Tests for ControlPlane (core/control_plane.h), the event sequence the
// controller, the testbed simulator and bate_plan share: what each event
// runs, what it leaves unchanged, and that enforced() is the one enforce
// rule over the class's own state.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/control_plane.h"
#include "obs/metrics.h"
#include "topology/catalog.h"
#include "util/rng.h"
#include "workload/sla.h"

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

/// FNV-1a over the bytes of `value`.
template <typename T>
void fnv(std::uint64_t& h, const T& value) {
  unsigned char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  for (const unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
}

TEST_F(ControlPlaneFixture, SeededChurnRoundsArePinnedBitForBit) {
  // Every LP of a round runs through the one simplex engine: the warm LP
  // restart, the hard-repair branch & bound nodes and the admission probes.
  // The digest covers every round's admitted ids, primaries bit for bit,
  // and the solver work the round took, so a change to the engine that
  // moves any pivot of any round changes it: an optimization meant to be
  // bit-identical must keep the constant. The replay mixes single
  // arrivals, bursts of 8 near the admission limit (rejects) and withdraws.
  obs::set_enabled(true);
  const std::int64_t nodes0 = counter("bate_bnb_nodes_solved_total");
  ControlPlane cp(scheduler, AdmissionStrategy::kBate);
  Rng rng(9001);
  const auto& targets = b4_targets();
  DemandId next_id = 1;
  int rounds = 0;
  int rejected = 0;
  int withdrawn = 0;
  std::uint64_t h = 14695981039346656037ull;
  for (int step = 0; step < 160; ++step) {
    const std::int64_t iterations0 = counter("bate_solver_iterations_total");
    const std::int64_t pivots0 = counter("bate_solver_pivots_total");
    const std::int64_t dual0 = counter("bate_solver_dual_pivots_total");
    const std::size_t live = cp.admitted().size();
    bool ran = false;
    if (live > 0 && rng.uniform(0.0, 1.0) < (live < 40 ? 0.3 : 0.6)) {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live) - 1));
      const DemandId id = cp.admitted()[k].id;
      ran = !cp.withdraw({&id, 1}).empty();
      ++withdrawn;
    } else {
      const bool burst = rng.bernoulli(0.25);
      std::vector<Demand> batch;
      for (int i = 0; i < (burst ? 8 : 1); ++i) {
        const double mbps =
            burst ? rng.uniform(30.0, 150.0) : rng.uniform(10.0, 50.0);
        const int pair = rng.uniform_int(0, catalog.pair_count() - 1);
        const double beta =
            targets[static_cast<std::size_t>(rng.uniform_int(
                        0, static_cast<int>(targets.size()) - 1))]
                .availability;
        batch.push_back(make_demand(next_id++, pair, mbps, beta));
      }
      const BatchAdmissionOutcome out = cp.admit(batch);
      for (const AdmissionOutcome& o : out.outcomes) {
        rejected += o.admitted ? 0 : 1;
      }
      ran = out.rescheduled;
    }
    if (!ran) continue;
    ++rounds;
    for (const Demand& d : cp.admitted()) fnv(h, d.id);
    for (const Allocation& alloc : cp.primaries()) {
      for (const std::vector<double>& rates : alloc) {
        fnv(h, rates.size());
        for (const double r : rates) fnv(h, r);
      }
    }
    fnv(h, counter("bate_solver_iterations_total") - iterations0);
    fnv(h, counter("bate_solver_pivots_total") - pivots0);
    fnv(h, counter("bate_solver_dual_pivots_total") - dual0);
  }
  EXPECT_GT(rounds, 100);
  EXPECT_GT(rejected, 0) << "the replay never reached the admission limit";
  EXPECT_GT(withdrawn, 0);
  EXPECT_GT(counter("bate_bnb_nodes_solved_total") - nodes0, 0)
      << "no round ran a hard-repair node";
  EXPECT_EQ(h, 0x06fa74d568791c12ull) << std::hex << "digest 0x" << h;
}

}  // namespace
}  // namespace bate
