// Tests for the simulation layer: metric accounting, the testbed-style
// per-second engine (admission, rescaling, backup activation, loss), and
// the post-processing experiment harness.
#include <gtest/gtest.h>

#include "baselines/ffc.h"
#include "baselines/teavar.h"
#include "core/bate_scheme.h"
#include "core/control_plane.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/metrics.h"
#include "topology/catalog.h"
#include "util/stats.h"
#include "workload/sla.h"

namespace bate {
namespace {

Demand make_demand(DemandId id, int pair, double mbps, double beta,
                   double arrival = 0.0, double duration = 100.0) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  d.availability_target = beta;
  d.charge = mbps;
  d.refund_fraction = 0.2;
  d.arrival_minute = arrival;
  d.duration_minutes = duration;
  return d;
}

TEST(Stats, SummaryBasics) {
  Summary s;
  for (double v : {4.0, 1.0, 3.0, 2.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.quantile(0.5), 2.5, 1e-9);
  EXPECT_THROW(s.quantile(1.5), std::invalid_argument);
}

TEST(Stats, EmpiricalCdfEndsAtOne) {
  const auto cdf = empirical_cdf({5.0, 1.0, 3.0, 2.0, 4.0}, 3);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.back().value, 5.0);
  EXPECT_DOUBLE_EQ(cdf.back().fraction, 1.0);
  EXPECT_LE(cdf.front().fraction, cdf.back().fraction);
}

TEST(Metrics, OutcomeAccounting) {
  DemandOutcome o;
  o.availability_target = 0.99;
  o.charge = 100.0;
  o.refund_fraction = 0.25;
  o.admitted = true;
  o.active_seconds = 100;
  o.satisfied_seconds = 100;
  EXPECT_TRUE(o.target_met());
  EXPECT_DOUBLE_EQ(o.profit(), 100.0);
  o.satisfied_seconds = 90;  // 90% < 99%
  EXPECT_FALSE(o.target_met());
  EXPECT_DOUBLE_EQ(o.profit(), 75.0);
}

TEST(Metrics, AggregateHelpers) {
  SimMetrics m;
  for (int i = 0; i < 4; ++i) {
    DemandOutcome o;
    o.offered = true;
    o.admitted = i < 3;
    o.availability_target = 0.9;
    o.charge = 10.0;
    o.refund_fraction = 0.5;
    o.active_seconds = 10;
    o.satisfied_seconds = (i == 0) ? 5 : 10;  // first admitted one violated
    m.outcomes.push_back(o);
  }
  EXPECT_EQ(m.offered_count(), 4);
  EXPECT_EQ(m.admitted_count(), 3);
  EXPECT_NEAR(m.rejection_ratio(), 0.25, 1e-12);
  EXPECT_NEAR(m.satisfaction_fraction(), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.total_profit(), 5.0 + 10.0 + 10.0);
  EXPECT_DOUBLE_EQ(m.no_failure_profit(), 30.0);
}

struct EngineFixture {
  Topology topo = testbed6();
  TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);
  TrafficScheduler scheduler{topo, catalog, SchedulerConfig{}};
  BateScheme bate{scheduler};
};

TEST(Engine, NoFailuresMeansFullSatisfaction) {
  EngineFixture fx;
  // A failure-free timeline: zero out probabilities via a clone topology.
  Topology quiet("quiet");
  for (int i = 0; i < fx.topo.node_count(); ++i) quiet.add_node();
  for (const Link& l : fx.topo.links()) {
    quiet.add_link(l.src, l.dst, l.capacity, 0.0);
  }
  Rng rng(1);
  const FailureTimeline timeline(quiet, 10 * 60, 3.0, rng);

  const std::vector<Demand> demands = {make_demand(0, 0, 200.0, 0.99, 0.0, 8.0),
                                       make_demand(1, 4, 300.0, 0.95, 1.0, 6.0)};
  SimPolicy policy{"BATE", AdmissionStrategy::kBate, &fx.bate,
                   RescalePolicy::kBackup};
  TestbedSimConfig cfg;
  cfg.horizon_min = 10.0;
  const SimMetrics m =
      run_testbed_sim(fx.scheduler, policy, demands, timeline, cfg);

  EXPECT_EQ(m.admitted_count(), 2);
  for (const auto& o : m.outcomes) {
    EXPECT_GT(o.active_seconds, 0);
    EXPECT_EQ(o.satisfied_seconds, o.active_seconds) << "demand " << o.id;
  }
  EXPECT_NEAR(m.satisfaction_fraction(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.total_profit(), m.no_failure_profit());
}

TEST(Engine, AdmissionRejectsOverload) {
  EngineFixture fx;
  Rng rng(2);
  const FailureTimeline timeline(fx.topo, 5 * 60, 3.0, rng);
  std::vector<Demand> demands;
  for (int i = 0; i < 6; ++i) {
    demands.push_back(make_demand(i, 0, 900.0, 0.0, 0.0, 30.0));
  }
  SimPolicy policy{"BATE", AdmissionStrategy::kBate, &fx.bate,
                   RescalePolicy::kBackup};
  TestbedSimConfig cfg;
  cfg.horizon_min = 5.0;
  const SimMetrics m =
      run_testbed_sim(fx.scheduler, policy, demands, timeline, cfg);
  // DC1->DC2 pair can carry at most ~3 x 900 via disjoint-ish tunnels.
  EXPECT_LT(m.admitted_count(), 6);
  EXPECT_GT(m.admitted_count(), 0);
  EXPECT_GT(m.admission_delay_s.count(), 0u);
}

TEST(Engine, LossIsBoundedAndRecorded) {
  EngineFixture fx;
  Rng rng(3);
  const FailureTimeline timeline(fx.topo, 5 * 60, 3.0, rng);
  const std::vector<Demand> demands = {make_demand(0, 3, 500.0, 0.95, 0.0, 5.0)};
  TeavarScheme teavar(fx.topo, fx.catalog, 0.999);
  SimPolicy policy{"TEAVAR", std::nullopt, &teavar,
                   RescalePolicy::kProportional};
  TestbedSimConfig cfg;
  cfg.horizon_min = 5.0;
  const SimMetrics m =
      run_testbed_sim(fx.scheduler, policy, demands, timeline, cfg);
  EXPECT_FALSE(m.per_second_loss_ratio.empty());
  for (double loss : m.per_second_loss_ratio) {
    EXPECT_GE(loss, 0.0);
    EXPECT_LE(loss, 1.0);
  }
}

TEST(Engine, SharedTimelineIsFairAcrossPolicies) {
  EngineFixture fx;
  Rng rng(4);
  const FailureTimeline timeline(fx.topo, 3 * 60, 3.0, rng);
  const std::vector<Demand> demands = {make_demand(0, 0, 100.0, 0.9, 0.0, 3.0)};
  FfcScheme ffc(fx.topo, fx.catalog, 1);
  SimPolicy a{"BATE", AdmissionStrategy::kBate, &fx.bate,
              RescalePolicy::kBackup};
  SimPolicy b{"FFC", std::nullopt, &ffc, RescalePolicy::kProportional};
  TestbedSimConfig cfg;
  cfg.horizon_min = 3.0;
  const SimMetrics ma = run_testbed_sim(fx.scheduler, a, demands, timeline, cfg);
  const SimMetrics mb = run_testbed_sim(fx.scheduler, b, demands, timeline, cfg);
  // Identical failure processes: the recorded link failure counts match.
  EXPECT_EQ(ma.link_failure_counts, mb.link_failure_counts);
}

TEST(Engine, VerdictsAreTheControlPlanesOnAFig07bWorkload) {
  // Fig 7(b)'s workload on testbed6 at 6 arrivals/min for 10 minutes. The
  // simulator's verdicts must be those of a ControlPlane driven directly:
  // each minute's departures as one withdraw, its arrivals as one batch.
  EngineFixture fx;
  WorkloadConfig wl;
  wl.arrival_rate_per_min = 6.0;
  wl.mean_duration_min = 5.0;
  wl.horizon_min = 10.0;
  wl.bw_min_mbps = 100.0;
  wl.bw_max_mbps = 400.0;
  wl.availability_targets = testbed_target_set();
  wl.services = testbed_services();
  wl.seed = 200;
  const std::vector<Demand> demands = generate_demands(fx.catalog, wl);
  Rng rng(9000);
  const FailureTimeline timeline(fx.topo, 10 * 60, 3.0, rng);
  const SimPolicy policy{"BATE", AdmissionStrategy::kBate, &fx.bate,
                         RescalePolicy::kBackup};
  TestbedSimConfig cfg;
  cfg.horizon_min = 10.0;
  const SimMetrics m =
      run_testbed_sim(fx.scheduler, policy, demands, timeline, cfg);

  ControlPlane cp(fx.scheduler, AdmissionStrategy::kBate);
  std::vector<char> verdicts;
  std::size_t next = 0;
  for (int minute = 0; minute < 10; ++minute) {
    std::vector<DemandId> departed;
    for (const Demand& d : cp.admitted()) {
      if (d.end_minute() <= minute) departed.push_back(d.id);
    }
    cp.withdraw(departed);
    std::vector<Demand> batch;
    while (next < demands.size() && demands[next].arrival_minute < minute + 1) {
      batch.push_back(demands[next++]);
    }
    for (const AdmissionOutcome& o : cp.admit(batch).outcomes) {
      verdicts.push_back(o.admitted ? 1 : 0);
    }
  }
  ASSERT_EQ(verdicts.size(), next);
  ASSERT_GT(next, 40u);
  int admitted = 0;
  for (std::size_t i = 0; i < next; ++i) {
    EXPECT_TRUE(m.outcomes[i].offered);
    EXPECT_EQ(m.outcomes[i].admitted, verdicts[i] != 0)
        << "demand " << demands[i].id;
    admitted += verdicts[i];
  }
  // The workload exercises both verdicts.
  EXPECT_GT(admitted, 0);
  EXPECT_LT(admitted, static_cast<int>(next));
}

TEST(Experiment, AchievedAvailabilityMatchesPairPatterns) {
  // Single pair: the joint availability is the pair's own exact pattern
  // availability. Two pairs: both being whole needs links up, so the two
  // events correlate positively and the joint mass is at least the
  // product of the pairs' availabilities.
  EngineFixture fx;
  const std::vector<Demand> demands = {make_demand(0, 0, 200.0, 0.99)};
  const auto r = fx.scheduler.schedule(demands);
  ASSERT_TRUE(r.feasible);
  const double single =
      achieved_availability(fx.topo, fx.catalog, demands[0], r.alloc[0]);
  EXPECT_EQ(single, exact_patterns(fx.topo, fx.catalog.tunnels(0))
                        .availability(r.alloc[0][0], 200.0));
  EXPECT_GE(single + 1e-12, 0.99);

  Demand both = make_demand(1, 0, 200.0, 0.9);
  both.pairs.push_back({1, 100.0});
  const auto rb = fx.scheduler.schedule(std::vector<Demand>{both});
  ASSERT_TRUE(rb.feasible);
  double product = 1.0;
  for (std::size_t p = 0; p < both.pairs.size(); ++p) {
    product *= exact_patterns(fx.topo, fx.catalog.tunnels(both.pairs[p].pair))
                   .availability(rb.alloc[0][p], both.pairs[p].mbps);
  }
  EXPECT_GE(achieved_availability(fx.topo, fx.catalog, both, rb.alloc[0]) +
                1e-12,
            product);
}

TEST(Experiment, EvaluateTeProducesSaneNumbers) {
  EngineFixture fx;
  const std::vector<Demand> demands = {make_demand(0, 0, 200.0, 0.99),
                                       make_demand(1, 7, 300.0, 0.95)};
  const TeEvaluation eval = evaluate_te(fx.topo, fx.bate, demands, true);
  EXPECT_EQ(eval.demand_count, 2);
  EXPECT_GE(eval.satisfaction_fraction, 0.0);
  EXPECT_LE(eval.satisfaction_fraction, 1.0);
  EXPECT_GT(eval.mean_link_utilization, 0.0);
  // BATE serves both in full, and no failure adds profit to that.
  EXPECT_DOUBLE_EQ(eval.no_failure_profit_fraction, 1.0);
  EXPECT_GT(eval.post_failure_profit_fraction, 0.5);
  EXPECT_LE(eval.post_failure_profit_fraction, 1.0 + 1e-9);
}

TEST(Experiment, AdmissionSimTracksDecisions) {
  EngineFixture fx;
  std::vector<Demand> demands;
  for (int i = 0; i < 8; ++i) {
    demands.push_back(
        make_demand(i, i % 5, 400.0, 0.9, static_cast<double>(i), 50.0));
  }
  const AdmissionSimResult r =
      run_admission_sim(fx.scheduler, AdmissionStrategy::kBate, demands);
  EXPECT_EQ(r.offered, 8);
  EXPECT_EQ(r.decisions.size(), 8u);
  EXPECT_GT(r.admitted, 0);
  EXPECT_GT(r.link_utilization.count(), 0u);
}

TEST(Experiment, SteadyStateSnapshotRespectsLifetime) {
  EngineFixture fx;
  WorkloadConfig cfg;
  cfg.arrival_rate_per_min = 3.0;
  cfg.horizon_min = 100.0;
  cfg.mean_duration_min = 10.0;
  cfg.seed = 5;
  const auto snapshot = steady_state_snapshot(fx.catalog, cfg, 50.0);
  EXPECT_GT(snapshot.size(), 5u);   // ~30 expected
  EXPECT_LT(snapshot.size(), 120u);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].id, static_cast<DemandId>(i));
  }
}

}  // namespace
}  // namespace bate
