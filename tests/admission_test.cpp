// Tests for BATE admission control (Sec 3.2): Algorithm 1, the Theorem-1
// no-false-positive property (conjecture admits => a hard-feasible
// allocation exists), the optimal MILP check, and the FCFS controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/admission.h"
#include "topology/catalog.h"
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

struct TestbedFixture {
  Topology topo = testbed6();
  TunnelCatalog catalog = TunnelCatalog::build(
      topo, std::vector<SdPair>{{0, 2}, {0, 3}, {0, 4}}, 4);
  TrafficScheduler scheduler{topo, catalog, SchedulerConfig{}};
};

TEST(AdmissionConjecture, AcceptsEasyDemands) {
  TestbedFixture fx;
  const std::vector<Demand> demands = {make_demand(0, 0, 100.0, 0.99),
                                       make_demand(1, 1, 100.0, 0.99)};
  EXPECT_TRUE(admission_conjecture(fx.scheduler, demands));
}

TEST(AdmissionConjecture, RejectsOverCapacity) {
  TestbedFixture fx;
  // DC1 has three outgoing links of 1000 each: 3000 total egress.
  const std::vector<Demand> demands = {make_demand(0, 0, 1500.0, 0.5),
                                       make_demand(1, 1, 1500.0, 0.5),
                                       make_demand(2, 2, 1500.0, 0.5)};
  EXPECT_FALSE(admission_conjecture(fx.scheduler, demands));
}

TEST(AdmissionConjecture, RejectsUnreachableAvailability) {
  TestbedFixture fx;
  // Twelve nines: even with full redundancy across every tunnel, the
  // probability that all paths die simultaneously exceeds 1e-12 on the
  // testbed, so no allocation can reach this target.
  const std::vector<Demand> demands = {
      make_demand(0, 0, 100.0, 0.999999999999)};
  EXPECT_FALSE(admission_conjecture(fx.scheduler, demands));
}

TEST(AdmissionConjecture, EmptySetIsAccepted) {
  TestbedFixture fx;
  EXPECT_TRUE(admission_conjecture(fx.scheduler, {}));
}

// Theorem 1 (no false positives): whenever Algorithm 1 admits a demand set,
// the scheduling LP (which the paper proves is a relaxation of hard
// feasibility) must be feasible for that set.
class Theorem1Property : public ::testing::TestWithParam<int> {};

TEST_P(Theorem1Property, ConjectureImpliesFeasibleSchedule) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});

  WorkloadConfig cfg;
  cfg.arrival_rate_per_min = 2.0;
  cfg.horizon_min = 6.0;
  cfg.mean_duration_min = 30.0;
  cfg.bw_min_mbps = 50.0;
  cfg.bw_max_mbps = 400.0;
  cfg.availability_targets = {0.9, 0.95, 0.99, 0.999};
  cfg.seed = 4000 + static_cast<std::uint64_t>(GetParam());
  auto demands = generate_demands(catalog, cfg);
  if (demands.size() > 8) demands.resize(8);
  if (demands.empty()) GTEST_SKIP();

  if (!admission_conjecture(scheduler, demands)) GTEST_SKIP();
  const ScheduleResult r = scheduler.schedule(demands);
  EXPECT_TRUE(r.feasible) << "Theorem 1 violated for seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1Property, ::testing::Range(0, 20));

TEST(GreedyAllocate, ConsumesResidualOnSuccess) {
  TestbedFixture fx;
  std::vector<double> residual(static_cast<std::size_t>(fx.topo.link_count()),
                               1000.0);
  const Demand d = make_demand(0, 0, 300.0, 0.9);
  const auto alloc = greedy_allocate(fx.topo, fx.catalog, d, residual);
  ASSERT_TRUE(alloc.has_value());
  double total = 0.0;
  for (double f : (*alloc)[0]) total += f;
  EXPECT_NEAR(total, 300.0, 1e-6);
  // Some link lost 300 of headroom.
  double min_resid = 1e18;
  for (double rc : residual) min_resid = std::min(min_resid, rc);
  EXPECT_NEAR(min_resid, 700.0, 1e-6);
}

TEST(GreedyAllocate, FailsWithoutTouchingResidual) {
  TestbedFixture fx;
  std::vector<double> residual(static_cast<std::size_t>(fx.topo.link_count()),
                               10.0);
  const Demand d = make_demand(0, 0, 300.0, 0.9);
  const auto before = residual;
  EXPECT_FALSE(greedy_allocate(fx.topo, fx.catalog, d, residual).has_value());
  EXPECT_EQ(residual, before);
}

TEST(GreedyAllocatePartial, PlacesWhatFits) {
  TestbedFixture fx;
  std::vector<double> residual(static_cast<std::size_t>(fx.topo.link_count()),
                               50.0);
  const Demand d = make_demand(0, 0, 300.0, 0.9);
  const auto alloc =
      greedy_allocate_partial(fx.topo, fx.catalog, d, residual);
  double total = 0.0;
  for (double f : alloc[0]) total += f;
  EXPECT_GT(total, 0.0);
  EXPECT_LT(total, 300.0);
}

TEST(OptimalAdmission, AcceptsAndRejectsCorrectly) {
  TestbedFixture fx;
  const std::vector<Demand> ok = {make_demand(0, 0, 200.0, 0.99)};
  EXPECT_TRUE(optimal_admission_check(fx.scheduler, ok));
  const std::vector<Demand> too_big = {make_demand(0, 0, 5000.0, 0.5)};
  EXPECT_FALSE(optimal_admission_check(fx.scheduler, too_big));
  const std::vector<Demand> too_strict = {
      make_demand(0, 0, 100.0, 0.99999999)};
  EXPECT_FALSE(optimal_admission_check(fx.scheduler, too_strict));
}

TEST(OptimalAdmission, DominatesConjecture) {
  // Anything the conjecture accepts, the optimal check must accept too
  // (Theorem 1 direction).
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  WorkloadConfig cfg;
  cfg.arrival_rate_per_min = 1.0;
  cfg.horizon_min = 5.0;
  cfg.mean_duration_min = 60.0;
  cfg.bw_min_mbps = 20.0;
  cfg.bw_max_mbps = 200.0;
  cfg.seed = 99;
  auto demands = generate_demands(catalog, cfg);
  if (demands.size() > 6) demands.resize(6);
  if (demands.empty() || !admission_conjecture(scheduler, demands)) {
    GTEST_SKIP();
  }
  EXPECT_TRUE(optimal_admission_check(scheduler, demands));
}

TEST(AdmissionController, FcfsLifecycle) {
  TestbedFixture fx;
  AdmissionController controller(fx.scheduler, AdmissionStrategy::kBate);

  const Demand d0 = make_demand(0, 0, 300.0, 0.99);
  const Demand d1 = make_demand(1, 1, 400.0, 0.95);
  EXPECT_TRUE(controller.offer(d0).admitted);
  EXPECT_TRUE(controller.offer(d1).admitted);
  EXPECT_EQ(controller.admitted().size(), 2u);
  EXPECT_EQ(controller.allocations().size(), 2u);

  controller.remove(0);
  EXPECT_EQ(controller.admitted().size(), 1u);
  EXPECT_EQ(controller.admitted()[0].id, 1);

  EXPECT_TRUE(controller.reschedule());
}

TEST(AdmissionController, RejectsWhenFull) {
  TestbedFixture fx;
  AdmissionController controller(fx.scheduler, AdmissionStrategy::kBate);
  // Saturate DC1's egress (3 x 1000).
  EXPECT_TRUE(controller.offer(make_demand(0, 0, 900.0, 0.0)).admitted);
  EXPECT_TRUE(controller.offer(make_demand(1, 1, 900.0, 0.0)).admitted);
  EXPECT_TRUE(controller.offer(make_demand(2, 2, 900.0, 0.0)).admitted);
  EXPECT_FALSE(controller.offer(make_demand(3, 0, 900.0, 0.0)).admitted);
}

// --- Batched admission (offer_batch, DESIGN.md Sec 10) ---

/// Deterministic mixed batch keyed on `seed`: sizes and targets chosen so
/// early arrivals fit and later ones contend for the remaining capacity
/// (total demand ~1.3x the 3000-unit source egress).
std::vector<Demand> mixed_batch(std::uint64_t seed, int count = 10) {
  std::vector<Demand> out;
  std::uint64_t x = seed;
  const auto next = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<std::uint32_t>(x >> 33);
  };
  const double sizes[] = {150.0, 300.0, 450.0, 700.0};
  const double betas[] = {0.0, 0.9, 0.99};
  for (int i = 0; i < count; ++i) {
    out.push_back(make_demand(i, static_cast<int>(next() % 3),
                              sizes[next() % 4], betas[next() % 3]));
  }
  return out;
}

// Batch admission IS the serial walk for every strategy (one incrementally
// maintained residual instead of a recompute per offer), so the verdicts,
// the admitted set, and chunking of the queue must all be invisible.
class BatchEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BatchEquivalence, MatchesSerialWholeAndChunked) {
  const auto demands = mixed_batch(static_cast<std::uint64_t>(GetParam()));
  for (const AdmissionStrategy strategy :
       {AdmissionStrategy::kFixed, AdmissionStrategy::kBate,
        AdmissionStrategy::kOptimal}) {
    TestbedFixture fx;
    AdmissionController serial(fx.scheduler, strategy);
    std::vector<bool> want;
    for (const Demand& d : demands) want.push_back(serial.offer(d).admitted);

    AdmissionController whole(fx.scheduler, strategy);
    const BatchAdmissionOutcome out = whole.offer_batch(demands);
    ASSERT_EQ(out.outcomes.size(), demands.size());
    EXPECT_EQ(out.first_new_index, 0u);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      EXPECT_EQ(out.outcomes[i].admitted, want[i])
          << "strategy " << static_cast<int>(strategy) << " position " << i;
    }

    // Chunked like the controller's ticks: same verdicts regardless of how
    // arrivals group into batches.
    AdmissionController chunked(fx.scheduler, strategy);
    for (std::size_t off = 0; off < demands.size(); off += 3) {
      const std::span<const Demand> chunk(
          demands.data() + off, std::min<std::size_t>(3, demands.size() - off));
      const BatchAdmissionOutcome o = chunked.offer_batch(chunk);
      ASSERT_EQ(o.outcomes.size(), chunk.size());
      EXPECT_EQ(o.first_new_index, chunked.admitted().size() -
                                       [&] {
                                         std::size_t n = 0;
                                         for (const auto& oc : o.outcomes) {
                                           if (oc.admitted) ++n;
                                         }
                                         return n;
                                       }());
      for (std::size_t j = 0; j < chunk.size(); ++j) {
        EXPECT_EQ(o.outcomes[j].admitted, want[off + j])
            << "strategy " << static_cast<int>(strategy) << " position "
            << off + j;
      }
    }

    ASSERT_EQ(whole.admitted().size(), serial.admitted().size());
    ASSERT_EQ(chunked.admitted().size(), serial.admitted().size());
    for (std::size_t i = 0; i < serial.admitted().size(); ++i) {
      EXPECT_EQ(whole.admitted()[i].id, serial.admitted()[i].id);
      EXPECT_EQ(chunked.admitted()[i].id, serial.admitted()[i].id);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchEquivalence, ::testing::Range(0, 8));

TEST(BatchOptimal, AllFeasibleMatchesSerial) {
  // When the whole queue is jointly admissible the batch must agree with
  // the serial walk exactly: everyone in, same order.
  TestbedFixture fx;
  const std::vector<Demand> demands = {make_demand(0, 0, 300.0, 0.9),
                                       make_demand(1, 1, 400.0, 0.0),
                                       make_demand(2, 2, 250.0, 0.99)};
  AdmissionController serial(fx.scheduler, AdmissionStrategy::kOptimal);
  AdmissionController batch(fx.scheduler, AdmissionStrategy::kOptimal);
  std::vector<bool> want;
  for (const Demand& d : demands) want.push_back(serial.offer(d).admitted);

  const BatchAdmissionOutcome out = batch.offer_batch(demands);
  ASSERT_EQ(out.outcomes.size(), demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    EXPECT_TRUE(want[i]);
    EXPECT_EQ(out.outcomes[i].admitted, want[i]);
  }
  ASSERT_EQ(batch.admitted().size(), serial.admitted().size());
  for (std::size_t i = 0; i < serial.admitted().size(); ++i) {
    EXPECT_EQ(batch.admitted()[i].id, serial.admitted()[i].id);
  }
}

TEST(BatchOptimal, InfeasibleBatchPicksMaxCardinalitySubset) {
  // d0 = 2000 fills the source egress enough that neither 1200 fits next
  // to it, although the two 1200s would fit together. kOptimal admits FCFS
  // like every strategy: d0 in, d1 and d2 out, in a batch as serially.
  TestbedFixture fx;
  const std::vector<Demand> demands = {make_demand(0, 0, 2000.0, 0.0),
                                       make_demand(1, 1, 1200.0, 0.0),
                                       make_demand(2, 2, 1200.0, 0.0)};
  AdmissionController serial(fx.scheduler, AdmissionStrategy::kOptimal);
  EXPECT_TRUE(serial.offer(demands[0]).admitted);
  EXPECT_FALSE(serial.offer(demands[1]).admitted);
  EXPECT_FALSE(serial.offer(demands[2]).admitted);

  AdmissionController batch(fx.scheduler, AdmissionStrategy::kOptimal);
  const BatchAdmissionOutcome out = batch.offer_batch(demands);
  ASSERT_EQ(out.outcomes.size(), 3u);
  EXPECT_TRUE(out.outcomes[0].admitted);
  EXPECT_FALSE(out.outcomes[1].admitted);
  EXPECT_FALSE(out.outcomes[2].admitted);
  ASSERT_EQ(batch.admitted().size(), 1u);
  EXPECT_EQ(batch.admitted()[0].id, 0);
}

TEST(BatchOptimal, FcfsTieBreakAmongEqualCardinality) {
  // Three identical 1800s, any two over the 3000-unit egress: only the
  // earliest arrival fits, matching the serial walk.
  TestbedFixture fx;
  const std::vector<Demand> demands = {make_demand(0, 0, 1800.0, 0.0),
                                       make_demand(1, 1, 1800.0, 0.0),
                                       make_demand(2, 2, 1800.0, 0.0)};
  AdmissionController batch(fx.scheduler, AdmissionStrategy::kOptimal);
  const BatchAdmissionOutcome out = batch.offer_batch(demands);
  ASSERT_EQ(out.outcomes.size(), 3u);
  EXPECT_TRUE(out.outcomes[0].admitted);
  EXPECT_FALSE(out.outcomes[1].admitted);
  EXPECT_FALSE(out.outcomes[2].admitted);
  ASSERT_EQ(batch.admitted().size(), 1u);
  EXPECT_EQ(batch.admitted()[0].id, 0);
}

TEST(AdmissionController, ConjectureAdmitsWhatFixedRejects) {
  // Construct a state where the fixed strategy's frozen allocations block a
  // newcomer but a reschedule would fit everyone: two 600-unit demands on
  // the same pair, then a third one elsewhere... Use pair DC1->DC3 whose
  // tunnels overlap with DC1->DC4 traffic.
  TestbedFixture fx;
  AdmissionController bate(fx.scheduler, AdmissionStrategy::kBate);
  AdmissionController fixed(fx.scheduler, AdmissionStrategy::kFixed);

  // Fill with best-effort demands that the greedy first-fit spreads badly.
  std::vector<Demand> warmup;
  for (int i = 0; i < 5; ++i) {
    warmup.push_back(make_demand(i, i % 3, 450.0, 0.0));
  }
  int bate_admits = 0;
  int fixed_admits = 0;
  for (const Demand& d : warmup) {
    bate_admits += bate.offer(d).admitted ? 1 : 0;
    fixed_admits += fixed.offer(d).admitted ? 1 : 0;
  }
  // BATE's conjecture path must never admit fewer than fixed.
  EXPECT_GE(bate_admits, fixed_admits);
}

}  // namespace
}  // namespace bate
