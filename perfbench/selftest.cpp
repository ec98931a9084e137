// Tests of the benchmark's own pieces: the percentile rule, the open-loop
// lateness accounting, the workload generator, the trace parser, and every
// output check firing on a deliberately wrong input.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "checks.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "stats.h"
#include "topology/catalog.h"
#include "traced.h"
#include "workload.h"
#include "workload/sla.h"

namespace perfbench {
namespace {

using bate::Demand;

// --- percentile rule --------------------------------------------------------

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  EXPECT_EQ(min_samples_for(0.5), 20u);
  EXPECT_EQ(min_samples_for(0.9), 100u);
  EXPECT_FALSE(percentile(iota(19), 0.5).has_value());
  EXPECT_FALSE(percentile(iota(99), 0.9).has_value());
  EXPECT_FALSE(percentile({}, 0.5).has_value());
}

TEST(Percentile, NearestRankOnceEnoughSamples) {
  EXPECT_DOUBLE_EQ(*percentile(iota(20), 0.5), 10.0);
  EXPECT_DOUBLE_EQ(*percentile(iota(100), 0.9), 90.0);
  std::vector<double> shuffled = iota(100);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_DOUBLE_EQ(*percentile(shuffled, 0.9), 90.0);
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// --- open-loop lateness -----------------------------------------------------

TEST(OpenLoop, LatencyCountsFromTheDueTime) {
  // Four requests due 1 ms apart; the generator stalls 10 ms before the
  // third, so the third and fourth go out late. Each takes 0.5 ms once sent.
  const std::vector<OpTiming> ops = {
      {0, 0, 500'000},
      {1'000'000, 1'000'000, 1'500'000},
      {2'000'000, 12'000'000, 12'500'000},
      {3'000'000, 12'010'000, 12'510'000},
  };
  const std::vector<double> lat = latencies_from_due_us(ops);
  ASSERT_EQ(lat.size(), 4u);
  EXPECT_DOUBLE_EQ(lat[0], 500.0);
  EXPECT_DOUBLE_EQ(lat[2], 10'500.0);  // the stall is charged to the request
  EXPECT_DOUBLE_EQ(lat[3], 9'510.0);   // ... and to the one queued behind it
  const std::vector<double> lag = generator_lag_us(ops);
  EXPECT_DOUBLE_EQ(lag[0], 0.0);
  EXPECT_DOUBLE_EQ(lag[2], 10'000.0);
  EXPECT_DOUBLE_EQ(lag[3], 9'010.0);
}

TEST(OpenLoop, UnobservedOpsHaveNoLatencyButKeepTheirLag) {
  const std::vector<OpTiming> ops = {{0, 2'000, -1}, {10, 5, 1'010}};
  EXPECT_EQ(latencies_from_due_us(ops).size(), 1u);
  const std::vector<double> lag = generator_lag_us(ops);
  EXPECT_DOUBLE_EQ(lag[0], 2.0);
  EXPECT_DOUBLE_EQ(lag[1], 0.0);  // early counts as on time
}

// --- workload generator -----------------------------------------------------

class WorkloadTest : public ::testing::Test {
 protected:
  bate::Topology topo_ = bate::testbed6();
  bate::TunnelCatalog catalog_ = bate::TunnelCatalog::build_all_pairs(topo_, 4);
};

TEST_F(WorkloadTest, SameSeedSameInputsOtherSeedOtherTimes) {
  const OpenLoopPlan a = make_open_loop(steady_shape(), catalog_, 7, 5.0);
  const OpenLoopPlan b = make_open_loop(steady_shape(), catalog_, 7, 5.0);
  const OpenLoopPlan c = make_open_loop(steady_shape(), catalog_, 8, 5.0);
  ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
  for (std::size_t i = 0; i < a.arrivals.size(); ++i) {
    EXPECT_EQ(a.arrivals[i].due_ns, b.arrivals[i].due_ns);
    EXPECT_EQ(a.arrivals[i].demand.pairs[0].mbps, b.arrivals[i].demand.pairs[0].mbps);
  }
  // Another seed moves the arrival times; the demand list stays the same.
  EXPECT_NE(a.arrivals[0].due_ns, c.arrivals[0].due_ns);
  EXPECT_EQ(a.arrivals[0].demand.pairs[0].mbps, c.arrivals[0].demand.pairs[0].mbps);
  EXPECT_EQ(a.arrivals[0].lifetime_ns, c.arrivals[0].lifetime_ns);
}

TEST_F(WorkloadTest, OpenLoopShapeHolds) {
  const OpenLoopShape shape = contended_shape();
  const OpenLoopPlan plan = make_open_loop(shape, catalog_, 3, 10.0);
  EXPECT_EQ(plan.initial.size(),
            static_cast<std::size_t>(std::llround(shape.mean_live())));
  std::map<int, int> per_burst;
  for (const Arrival& a : plan.arrivals) {
    EXPECT_GE(a.due_ns, 0);
    EXPECT_LT(a.due_ns, 10'000'000'000LL);
    EXPECT_GE(a.demand.pairs[0].mbps, shape.bw_min_mbps);
    EXPECT_LE(a.demand.pairs[0].mbps, shape.bw_max_mbps);
    ++per_burst[a.burst];
  }
  for (const auto& [burst, n] : per_burst) EXPECT_EQ(n, shape.burst_size);
  std::set<bate::DemandId> ids;
  for (const Arrival& a : plan.initial) ids.insert(a.demand.id);
  for (const Arrival& a : plan.arrivals) ids.insert(a.demand.id);
  EXPECT_EQ(ids.size(), plan.initial.size() + plan.arrivals.size());
}

TEST_F(WorkloadTest, FlapCycleTakesEveryLinkDownAndBackUp) {
  const std::vector<bate::LinkId> loaded = {1, 4, 6};
  bate::Rng rng(5);
  const std::vector<LinkEvent> cycle = flap_cycle(loaded, rng);
  EXPECT_EQ(cycle.size(), 6 * loaded.size());
  std::map<bate::LinkId, int> down;
  for (const LinkEvent& ev : cycle) {
    down[ev.link] += ev.up ? -1 : 1;
    EXPECT_GE(down[ev.link], 0);
  }
  for (const auto& [link, n] : down) EXPECT_EQ(n, 0);
}

// --- trace parser -----------------------------------------------------------

TEST(TraceParser, ReadsWhatTheTracerRenders) {
  const std::vector<bate::obs::TraceEventCopy> events = {
      {"controller.broadcast", 100, 7, 2, 11, 12, 10},
      {"broker.apply", 108, 1, 3, 11, 13, 12},
      {"legacy", 5, 0, 1},
  };
  const std::vector<SpanRec> spans =
      parse_chrome_events(bate::obs::chrome_trace_json(events));
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "controller.broadcast");
  EXPECT_EQ(spans[0].end_us(), 107);
  EXPECT_EQ(spans[1].tid, 3u);
  EXPECT_EQ(spans[1].trace, 11u);
  EXPECT_EQ(spans[1].parent, 12u);
  EXPECT_EQ(spans[2].trace, 0u);
}

// --- output checks ----------------------------------------------------------

TEST(Checks, ReplyLedgerWantsExactlyOneReplyPerRequest) {
  ReplyLedger ok;
  ok.sent(1);
  ok.replied(1);
  EXPECT_TRUE(ok.violations().empty());

  ReplyLedger missing;
  missing.sent(1);
  missing.sent(2);
  missing.replied(1);
  EXPECT_EQ(missing.unanswered(), 1u);
  EXPECT_EQ(missing.violations().size(), 1u);

  ReplyLedger twice;
  twice.sent(1);
  twice.replied(1);
  twice.replied(1);
  EXPECT_EQ(twice.violations().size(), 1u);

  ReplyLedger unknown;
  unknown.sent(1);
  unknown.replied(1);
  unknown.replied(9);
  EXPECT_EQ(unknown.violations().size(), 1u);
}

Demand one_pair_demand(bate::DemandId id, int pair, double mbps) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  return d;
}

TEST(Checks, EnforcementFiresOnARowBelowDemand) {
  const std::vector<Demand> admitted = {one_pair_demand(1, 0, 10.0)};
  std::map<int, std::vector<double>> rows = {{0, {6.0, 4.0}}, {1, {10.0}}};
  const RatesFn rates = [&](int b, bate::DemandId, int) { return rows[b]; };
  EXPECT_TRUE(check_enforced(admitted, 2, rates).empty());
  EXPECT_TRUE(enforced_everywhere(admitted[0], 2, rates));
  rows[1] = {9.5};  // broker 1 enforces less than b_d
  EXPECT_EQ(check_enforced(admitted, 2, rates).size(), 1u);
  EXPECT_FALSE(enforced_everywhere(admitted[0], 2, rates));
  rows[1] = {};  // broker 1 lost the row
  EXPECT_EQ(check_enforced(admitted, 2, rates).size(), 1u);
}

TEST_F(WorkloadTest, FailoverFiresOnARateAcrossTheDownLink) {
  const int pair = 0;
  const auto& tunnels = catalog_.tunnels(pair);
  ASSERT_GE(tunnels.size(), 2u);
  const bate::LinkId down = tunnels[0].links[0];
  // A tunnel of the pair that avoids the down link.
  std::size_t clear = tunnels.size();
  for (std::size_t t = 1; t < tunnels.size(); ++t) {
    if (!tunnels[t].uses(down)) clear = t;
  }
  ASSERT_LT(clear, tunnels.size());
  const std::vector<Demand> live = {one_pair_demand(1, pair, 10.0)};
  std::vector<double> row(tunnels.size(), 0.0);
  row[clear] = 10.0;
  const RatesFn good = [&](int, bate::DemandId, int) { return row; };
  EXPECT_TRUE(check_failover(down, catalog_, live, 2, good).empty());
  EXPECT_DOUBLE_EQ(whole_ratio({down}, catalog_, live, good), 1.0);

  std::vector<double> stale = row;
  stale[0] = 3.0;  // still sending across the failed link
  const RatesFn bad = [&](int b, bate::DemandId, int) {
    return b == 1 ? stale : row;
  };
  EXPECT_EQ(check_failover(down, catalog_, live, 2, bad).size(), 1u);

  std::vector<double> short_row(tunnels.size(), 0.0);
  short_row[0] = 10.0;  // all of it on the dead tunnel
  const RatesFn cut = [&](int, bate::DemandId, int) { return short_row; };
  EXPECT_DOUBLE_EQ(whole_ratio({down}, catalog_, live, cut), 0.0);
}

std::string ledger_payload(bate::obs::SloLedger& ledger, std::int64_t now) {
  return "{\"now_us\":" + std::to_string(now) +
         ",\"ledger\":" + ledger.snapshot(now).to_json() + "}";
}

TEST(Checks, SloCrosscheckMatchesAnIndependentReplay) {
  bate::obs::SloLedger ledger;
  ledger.admit(1, 1, 0.99, 1'000);
  ledger.allocate(1, 1'000);
  ledger.degrade(1, 5'000);
  ledger.recover(1, 7'000);
  ledger.admit(2, 1, 0.9, 2'000);
  ledger.withdraw(2, 9'000);
  const std::string payload = ledger_payload(ledger, 20'000);

  const SloCrosscheck ok = crosscheck_slo(payload, {1});
  EXPECT_TRUE(ok.violations.empty());
  EXPECT_EQ(ok.replayed, 2);
  EXPECT_EQ(ok.degraded, 1);

  // A live demand the ledger does not know.
  EXPECT_EQ(crosscheck_slo(payload, {1, 3}).violations.size(), 1u);

  // A ledger row whose availability disagrees with its own transitions.
  std::string tampered = payload;
  const std::size_t at = tampered.find("\"availability\":");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, std::string("\"availability\":").size(),
                   "\"availability\":0.5,\"was\":");
  EXPECT_FALSE(crosscheck_slo(tampered, {1}).violations.empty());

  EXPECT_FALSE(crosscheck_slo("not json", {}).violations.empty());
}

}  // namespace
}  // namespace perfbench
