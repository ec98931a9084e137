// Tests for the failure-scenario substrate: enumeration probabilities,
// pruning residuals, Poisson-binomial DP, pattern projection (exact and
// pruned) cross-checked against brute-force scenario enumeration and against
// the enumeration of every down set of the tunnels' link union, and the
// Monte-Carlo samplers.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <ostream>
#include <string>

#include "routing/tunnels.h"
#include "scenario/pattern.h"
#include "scenario/sampler.h"
#include "scenario/scenario.h"
#include "topology/catalog.h"
#include "topology/generator.h"
#include "util/rng.h"

namespace bate {
namespace {

TEST(ScenarioCount, MatchesBinomialSums) {
  EXPECT_DOUBLE_EQ(scenario_count(4, 0), 1.0);
  EXPECT_DOUBLE_EQ(scenario_count(4, 1), 5.0);
  EXPECT_DOUBLE_EQ(scenario_count(4, 2), 11.0);
  EXPECT_DOUBLE_EQ(scenario_count(4, 4), 16.0);
  EXPECT_DOUBLE_EQ(scenario_count(38, 1), 39.0);
  EXPECT_DOUBLE_EQ(scenario_count(38, 2), 39.0 + 703.0);
}

TEST(ScenarioSet, FullEnumerationSumsToOne) {
  const Topology t = toy4();
  const auto set = ScenarioSet::enumerate(t, t.link_count());
  double total = 0.0;
  for (const Scenario& z : set.scenarios()) total += z.prob;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(set.residual_prob(), 0.0, 1e-12);
  EXPECT_EQ(set.scenarios().size(), 16u);
}

TEST(ScenarioSet, PaperExampleProbability) {
  // Sec 3.1: z = {1,1,0,1} on the toy topology has p ~= 0.000959998.
  const Topology t = toy4();
  const auto set = ScenarioSet::enumerate(t, 1);
  const LinkId e3 = 2;  // DC1->DC3, failure prob 0.1%
  double found = -1.0;
  for (const Scenario& z : set.scenarios()) {
    if (z.failed == std::vector<LinkId>{e3}) found = z.prob;
  }
  ASSERT_GE(found, 0.0);
  EXPECT_NEAR(found, 0.96 * 0.999999 * 0.001 * 0.999999, 1e-9);
}

TEST(ScenarioSet, PrunedResidualMatchesComplement) {
  const Topology t = testbed6();
  const auto pruned = ScenarioSet::enumerate(t, 1);
  double total = 0.0;
  for (const Scenario& z : pruned.scenarios()) total += z.prob;
  EXPECT_NEAR(pruned.residual_prob(), 1.0 - total, 1e-12);
  // Fig 3 count: 1 + |E| scenarios at y=1.
  EXPECT_EQ(pruned.scenarios().size(),
            1u + static_cast<std::size_t>(t.link_count()));
}

TEST(ScenarioSet, ResidualShrinksWithY) {
  const Topology t = b4();
  double prev = 1.0;
  for (int y = 0; y <= 3; ++y) {
    const auto set = ScenarioSet::enumerate(t, y);
    EXPECT_LT(set.residual_prob(), prev);
    prev = set.residual_prob();
  }
  EXPECT_LT(prev, 1e-4);
}

TEST(ScenarioSet, EnumerationGuard) {
  const Topology t = att();
  EXPECT_THROW(ScenarioSet::enumerate(t, 4, 1000), std::invalid_argument);
}

TEST(Scenario, TunnelUpSemantics) {
  const Topology t = toy4();
  Tunnel tn{0, 3, {0, 1}};
  Scenario all_up{{}, 1.0};
  EXPECT_TRUE(all_up.tunnel_up(tn));
  Scenario z{{1}, 0.1};
  EXPECT_FALSE(z.tunnel_up(tn));
  EXPECT_TRUE(z.link_up(0));
  EXPECT_FALSE(z.link_up(1));
}

TEST(FailureCountDistribution, MatchesBruteForce) {
  const Topology t = toy4();
  const auto dist = failure_count_distribution(t, 4);
  // Brute force over 2^4 states.
  std::vector<double> expected(5, 0.0);
  for (unsigned mask = 0; mask < 16; ++mask) {
    double p = 1.0;
    int count = 0;
    for (int e = 0; e < 4; ++e) {
      const double x = t.link(e).failure_prob;
      if ((mask >> e) & 1u) {
        p *= x;
        ++count;
      } else {
        p *= 1.0 - x;
      }
    }
    expected[static_cast<std::size_t>(count)] += p;
  }
  for (int k = 0; k <= 4; ++k) {
    EXPECT_NEAR(dist[static_cast<std::size_t>(k)],
                expected[static_cast<std::size_t>(k)], 1e-12);
  }
}

TEST(FailureCountDistribution, SkipsMarkedLinks) {
  const Topology t = toy4();
  std::vector<char> skip(4, 0);
  skip[0] = 1;  // exclude the 4% link
  const auto dist = failure_count_distribution(t, 1, skip);
  // P(0 failures among remaining three links).
  EXPECT_NEAR(dist[0], 0.999999 * 0.999 * 0.999999, 1e-12);
}

// --- Pattern projection ---------------------------------------------------

std::vector<Tunnel> toy_tunnels(const Topology& t) {
  return {Tunnel{0, 3, {t.find_link(0, 1), t.find_link(1, 3)}},
          Tunnel{0, 3, {t.find_link(0, 2), t.find_link(2, 3)}}};
}

TEST(Pattern, ExactMatchesHandComputation) {
  const Topology t = toy4();
  const auto tunnels = toy_tunnels(t);
  const auto dist = exact_patterns(t, tunnels);
  ASSERT_EQ(dist.prob.size(), 4u);
  const double pa = 0.96 * 0.999999;   // tunnel A availability
  const double pb = 0.999 * 0.999999;  // tunnel B availability
  EXPECT_NEAR(dist.prob[0b11], pa * pb, 1e-9);
  EXPECT_NEAR(dist.prob[0b01], pa * (1 - pb), 1e-9);
  EXPECT_NEAR(dist.prob[0b10], (1 - pa) * pb, 1e-9);
  EXPECT_NEAR(dist.prob[0b00], (1 - pa) * (1 - pb), 1e-9);
  EXPECT_NEAR(dist.residual(), 0.0, 1e-12);
}

TEST(Pattern, ExactHandlesSharedLinks) {
  // Two tunnels sharing a link are NOT independent; the projection must
  // capture the correlation. Build a diamond where both tunnels use a
  // common first hop.
  Topology t("shared");
  const NodeId s = t.add_node();
  const NodeId m = t.add_node();
  const NodeId a = t.add_node();
  const NodeId d = t.add_node();
  const LinkId sm = t.add_link(s, m, 1.0, 0.1);
  const LinkId ma = t.add_link(m, a, 1.0, 0.2);
  const LinkId ad = t.add_link(a, d, 1.0, 0.0001);
  const LinkId md = t.add_link(m, d, 1.0, 0.3);
  const std::vector<Tunnel> tunnels = {Tunnel{s, d, {sm, md}},
                                       Tunnel{s, d, {sm, ma, ad}}};
  const auto dist = exact_patterns(t, tunnels);
  // Both tunnels down whenever sm fails: P(00) >= 0.1.
  EXPECT_GE(dist.prob[0b00], 0.1 - 1e-9);
  // Probabilities sum to 1.
  double total = 0.0;
  for (double p : dist.prob) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
}

/// Brute-force pattern distribution over the pruned scenario set.
PatternDistribution brute_pruned(const Topology& t,
                                 std::span<const Tunnel> tunnels, int y) {
  PatternDistribution dist;
  dist.tunnel_count = static_cast<int>(tunnels.size());
  dist.prob.assign(1ull << tunnels.size(), 0.0);
  for_each_scenario(t, y, [&](std::span<const LinkId> failed, double prob) {
    Scenario z{{failed.begin(), failed.end()}, prob};
    PatternMask s = 0;
    for (std::size_t i = 0; i < tunnels.size(); ++i) {
      if (z.tunnel_up(tunnels[i])) s |= 1u << i;
    }
    dist.prob[s] += prob;
  });
  return dist;
}

class PrunedPatternCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(PrunedPatternCrossCheck, MatchesScenarioEnumeration) {
  GeneratorConfig cfg;
  cfg.nodes = 6;
  cfg.directed_links = 16;
  cfg.seed = 900 + static_cast<std::uint64_t>(GetParam() / 3);
  const Topology t = generate_topology(cfg, "rnd");
  const std::vector<SdPair> pairs = {{0, 3}};
  const auto catalog = TunnelCatalog::build(t, pairs, 3);
  const auto& tunnels = catalog.tunnels(0);

  const int y = 1 + GetParam() % 3;
  const auto fast = pruned_patterns(t, tunnels, y);
  const auto slow = brute_pruned(t, tunnels, y);
  ASSERT_EQ(fast.prob.size(), slow.prob.size());
  for (std::size_t s = 0; s < fast.prob.size(); ++s) {
    EXPECT_NEAR(fast.prob[s], slow.prob[s], 1e-10) << "pattern " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrunedPatternCrossCheck,
                         ::testing::Range(0, 18));

TEST(Pattern, PrunedConvergesToExact) {
  const Topology t = testbed6();
  const auto catalog =
      TunnelCatalog::build(t, std::vector<SdPair>{{0, 4}}, 4);
  const auto exact = exact_patterns(t, catalog.tunnels(0));
  const auto pruned = pruned_patterns(t, catalog.tunnels(0), 6);
  for (std::size_t s = 0; s < exact.prob.size(); ++s) {
    EXPECT_NEAR(exact.prob[s], pruned.prob[s], 1e-6);
  }
}

TEST(Pattern, AvailabilityOfAllocation) {
  const Topology t = toy4();
  const auto tunnels = toy_tunnels(t);
  const auto dist = exact_patterns(t, tunnels);
  const double pa = 0.96 * 0.999999;
  const double pb = 0.999 * 0.999999;
  // All bandwidth on tunnel B: available whenever B is up.
  EXPECT_NEAR(dist.availability(std::vector<double>{0.0, 6000.0}, 6000.0), pb,
              1e-9);
  // Split across both: needs both up.
  EXPECT_NEAR(dist.availability(std::vector<double>{3000.0, 3000.0}, 6000.0),
              pa * pb, 1e-9);
  // Over-provisioned split: either tunnel alone suffices.
  EXPECT_NEAR(
      dist.availability(std::vector<double>{6000.0, 6000.0}, 6000.0),
      pa + pb - pa * pb, 1e-9);
}

TEST(Pattern, ExactHandlesLargeUnions) {
  // Sixteen tunnels whose union has more links than a 2^|U| enumeration
  // could visit.
  const Topology t = att();
  const auto catalog =
      TunnelCatalog::build(t, std::vector<SdPair>{{0, 12}}, 16);
  const auto& tunnels = catalog.tunnels(0);
  ASSERT_GT(tunnel_link_union(tunnels).size(), 24u);
  const auto dist = exact_patterns(t, tunnels);
  EXPECT_EQ(dist.tunnel_count, static_cast<int>(tunnels.size()));
  double total = 0.0;
  for (double p : dist.prob) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  // The pruned scenario set is a subset of all scenarios.
  const auto pruned = pruned_patterns(t, tunnels, 6);
  for (std::size_t s = 0; s < dist.prob.size(); ++s) {
    EXPECT_LE(pruned.prob[s], dist.prob[s] + 1e-15) << "pattern " << s;
  }
}

/// The pattern distribution by enumerating all 2^|U| down sets of the
/// tunnels' link union U, each weighted by its probability and, when
/// pruned to y failures, by the chance that at most y - |down set| links
/// outside U fail: the oracle of exact_patterns and pruned_patterns, and
/// the computation pruned_patterns must match bit for bit.
PatternDistribution enumerated_patterns(const Topology& t,
                                        std::span<const Tunnel> tunnels,
                                        std::optional<int> y) {
  const auto uni = tunnel_link_union(tunnels);
  std::vector<std::uint64_t> uses(tunnels.size(), 0);  // union links per tunnel
  for (std::size_t k = 0; k < tunnels.size(); ++k) {
    for (LinkId id : tunnels[k].links) {
      const auto i = std::lower_bound(uni.begin(), uni.end(), id) - uni.begin();
      uses[k] |= std::uint64_t{1} << i;
    }
  }
  std::vector<double> outside_cum;  // P(<= k failures outside the union)
  if (y) {
    std::vector<char> skip(static_cast<std::size_t>(t.link_count()), 0);
    for (LinkId id : uni) skip[static_cast<std::size_t>(id)] = 1;
    outside_cum = failure_count_distribution(t, *y, skip);
    for (std::size_t k = 1; k < outside_cum.size(); ++k) {
      outside_cum[k] += outside_cum[k - 1];
    }
  }
  PatternDistribution dist;
  dist.tunnel_count = static_cast<int>(tunnels.size());
  dist.prob.assign(std::size_t{1} << tunnels.size(), 0.0);
  for (std::uint64_t down = 0; down < (std::uint64_t{1} << uni.size());
       ++down) {
    const int failed = std::popcount(down);
    if (y && failed > *y) continue;
    double p = 1.0;
    for (std::size_t i = 0; i < uni.size(); ++i) {
      const double x = t.link(uni[i]).failure_prob;
      p *= ((down >> i) & 1u) ? x : 1.0 - x;
    }
    if (y) p *= outside_cum[static_cast<std::size_t>(*y - failed)];
    PatternMask s = 0;
    for (std::size_t k = 0; k < tunnels.size(); ++k) {
      if ((uses[k] & down) == 0) s |= PatternMask{1} << k;
    }
    dist.prob[s] += p;
  }
  return dist;
}

struct CatalogTopology {
  const char* name;
  Topology (*make)();
};

void PrintTo(const CatalogTopology& c, std::ostream* os) { *os << c.name; }

class PatternProjection : public ::testing::TestWithParam<CatalogTopology> {};

TEST_P(PatternProjection, MatchesEnumerationOnEveryCatalogPair) {
  const Topology t = GetParam().make();
  const auto catalog = TunnelCatalog::build_all_pairs(t, 4);
  for (int k = 0; k < catalog.pair_count(); ++k) {
    const auto& tunnels = catalog.tunnels(k);
    const std::string pair = "pair " + std::to_string(k);
    const auto exact = exact_patterns(t, tunnels);
    const auto want = enumerated_patterns(t, tunnels, std::nullopt);
    ASSERT_EQ(exact.prob.size(), want.prob.size()) << pair;
    for (std::size_t s = 0; s < exact.prob.size(); ++s) {
      EXPECT_NEAR(exact.prob[s], want.prob[s], 1e-14)
          << pair << " exact pattern " << s;
    }
    // The scheduling LP's coefficients: the same bits as the enumeration.
    for (int y = 1; y <= 4; ++y) {
      EXPECT_EQ(pruned_patterns(t, tunnels, y).prob,
                enumerated_patterns(t, tunnels, y).prob)
          << pair << " y=" << y;
    }
    EXPECT_EQ(pruned_patterns(t, tunnels, t.link_count()).prob, exact.prob)
        << pair;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Catalogs, PatternProjection,
    ::testing::Values(CatalogTopology{"testbed6", testbed6},
                      CatalogTopology{"b4", b4}, CatalogTopology{"fiti", fiti},
                      CatalogTopology{"ibm", ibm}, CatalogTopology{"att", att}),
    [](const ::testing::TestParamInfo<CatalogTopology>& param) {
      return std::string(param.param.name);
    });

// --- Samplers --------------------------------------------------------------

TEST(Sampler, TimelineRepairsAfterConfiguredTime) {
  Topology t("one");
  t.add_node();
  t.add_node();
  t.add_link(0, 1, 1.0, 0.5);  // fails often
  Rng rng(3);
  const FailureTimeline tl(t, 200, 3.0, rng);
  // After any failure second, the link stays down exactly 3 more seconds.
  for (int s = 0; s + 4 < 200; ++s) {
    const bool down_now = !tl.link_up(s, 0);
    const bool down_prev = s > 0 && !tl.link_up(s - 1, 0);
    if (down_now && !down_prev) {
      EXPECT_FALSE(tl.link_up(s + 1, 0));
      EXPECT_FALSE(tl.link_up(s + 2, 0));
      EXPECT_FALSE(tl.link_up(s + 3, 0));
    }
  }
}

TEST(Sampler, FailureCountsMatchProbabilities) {
  const Topology t = testbed6();
  Rng rng(17);
  const FailureTimeline tl(t, 20000, 0.0, rng);
  const auto& counts = tl.failure_counts();
  // L4 (1 % per second) must fail at least an order of magnitude more often
  // than L1 (0.001 %).
  const int l4 = counts[static_cast<std::size_t>(testbed_link(t, "L4"))];
  const int l1 = counts[static_cast<std::size_t>(testbed_link(t, "L1"))];
  EXPECT_GT(l4, 100);
  EXPECT_LT(l1, 10);
}

TEST(Sampler, IidScenarioDraw) {
  const Topology t = testbed6();
  Rng rng(21);
  int l4_downs = 0;
  for (int i = 0; i < 5000; ++i) {
    const auto failed = sample_down_links(t, rng);
    for (LinkId e : failed) {
      if (e == testbed_link(t, "L4")) ++l4_downs;
    }
  }
  EXPECT_NEAR(static_cast<double>(l4_downs) / 5000.0, 0.01, 0.005);
}

TEST(Sampler, RejectsBadArguments) {
  const Topology t = toy4();
  Rng rng(1);
  EXPECT_THROW(FailureTimeline(t, 0, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(FailureTimeline(t, 10, -1.0, rng), std::invalid_argument);
}

}  // namespace
}  // namespace bate
