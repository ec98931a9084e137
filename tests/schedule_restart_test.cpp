// Tests for the scheduling round's restart from the previous round
// (ScheduleBasisCache, core/scheduling.h): the basis translated by demand
// identity restarts every round after the first without a cold fallback and
// reaches the cold objective; kept unconstrained repairs change no
// allocation bit and save their MILPs, and every repair matches a fresh
// capacitated solve; and the translation's edge cases (slacks away from
// their own row, departed columns in capacity rows, repeated and changed
// ids).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/admission.h"
#include "core/scheduling.h"
#include "obs/metrics.h"
#include "topology/catalog.h"
#include "util/rng.h"
#include "workload/sla.h"

namespace bate {
namespace {

std::int64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

/// Restart paths and warm hits, read before and after a step.
struct Paths {
  std::int64_t primal = counter("bate_solver_restart_primal_total");
  std::int64_t dual = counter("bate_solver_restart_dual_total");
  std::int64_t composite = counter("bate_solver_restart_composite_total");
  std::int64_t fallback = counter("bate_solver_restart_fallback_total");
  std::int64_t hits = counter("bate_scheduler_warm_hits_total");
  std::int64_t misses = counter("bate_scheduler_warm_misses_total");
};

/// The scheduling LP's objective at an allocation: every g column costs its
/// objective coefficient times f / b; B columns cost nothing.
double lp_objective(const TrafficScheduler& scheduler,
                    const std::vector<Demand>& demands,
                    const std::vector<Allocation>& allocs) {
  ScheduleLayout layout;
  const Model model = scheduler.build_schedule_model(demands, {}, &layout);
  double objective = 0.0;
  std::size_t flat = 0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    for (std::size_t p = 0; p < demands[i].pairs.size(); ++p, ++flat) {
      const auto [first, count] = layout.pairs[flat];
      for (int t = 0; t < count; ++t) {
        objective += model.variable(first + t).objective *
                     allocs[i][p][static_cast<std::size_t>(t)] /
                     demands[i].pairs[p].mbps;
      }
    }
  }
  return objective;
}

bool same_bits(const std::vector<Allocation>& a,
               const std::vector<Allocation>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t p = 0; p < a[i].size(); ++p) {
      if (a[i][p].size() != b[i][p].size() ||
          (!a[i][p].empty() &&
           std::memcmp(a[i][p].data(), b[i][p].data(),
                       a[i][p].size() * sizeof(double)) != 0)) {
        return false;
      }
    }
  }
  return true;
}

Demand paper_demand(DemandId id, int pair, double mbps, double beta) {
  Demand d;
  d.id = id;
  d.pairs = {{pair, mbps}};
  d.availability_target = beta;
  d.charge = mbps;
  return d;
}

/// Seeded churn on testbed6: each step admits a batch of `burst` paper
/// demands (uniform bandwidth in [lo, hi], Table-1 targets) or withdraws a
/// random admitted demand, holding about `live` admitted. Every step that
/// changes the admitted set ends in one reschedule() over it, so the
/// allocations are the LP's over the final set.
class Churn {
 public:
  Churn(const TunnelCatalog& catalog, std::uint64_t seed, int burst,
        double lo, double hi, std::size_t live)
      : catalog_(&catalog), rng_(seed), burst_(burst), lo_(lo), hi_(hi),
        live_(live) {}

  /// Returns false when the step changed nothing (a batch all rejected).
  bool step(AdmissionController& adm) {
    const std::size_t n = adm.admitted().size();
    const bool arrive =
        n == 0 || rng_.uniform(0.0, 1.0) < (n < live_ ? 0.7 : 0.3);
    if (!arrive) {
      const auto k = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(n) - 1));
      adm.remove(adm.admitted()[k].id);
      adm.reschedule();
      return true;
    }
    std::vector<Demand> batch;
    const auto& targets = b4_targets();
    for (int i = 0; i < burst_; ++i) {
      Demand d;
      d.id = next_id_++;
      const double mbps = rng_.uniform(lo_, hi_);
      d.pairs = {{rng_.uniform_int(0, catalog_->pair_count() - 1), mbps}};
      d.availability_target =
          targets[static_cast<std::size_t>(rng_.uniform_int(
                      0, static_cast<int>(targets.size()) - 1))]
              .availability;
      d.charge = mbps;
      batch.push_back(d);
    }
    const BatchAdmissionOutcome out = adm.offer_batch(batch);
    bool any = false;
    for (const AdmissionOutcome& o : out.outcomes) {
      any = any || o.admitted;
      rejected_ += o.admitted ? 0 : 1;
    }
    if (any) adm.reschedule();
    return any;
  }

  int rejected() const { return rejected_; }

 private:
  const TunnelCatalog* catalog_;
  Rng rng_;
  int burst_;
  double lo_, hi_;
  std::size_t live_;
  DemandId next_id_ = 1;
  int rejected_ = 0;
};

struct RestartFixture : ::testing::Test {
  void SetUp() override { obs::set_enabled(true); }

  static SchedulerConfig lp_only() {
    SchedulerConfig cfg;
    cfg.hard_repair = false;  // the restart counters then see only the LP
    return cfg;
  }

  Topology topo = testbed6();
  TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);
};

/// Replays `steps` churn steps without hard repair; every round after the
/// first must restart warm with no cold fallback and reach the cold
/// objective. Returns the composite restarts taken.
std::int64_t replay_against_cold(const TrafficScheduler& scheduler,
                                 Churn& churn, int steps) {
  AdmissionController adm(scheduler, AdmissionStrategy::kBate);
  const Paths start;
  bool first = true;
  for (int s = 0; s < steps; ++s) {
    const Paths before;
    if (!churn.step(adm)) continue;
    const Paths after;
    if (!first) {
      EXPECT_EQ(after.misses - before.misses, 0) << "step " << s;
    }
    EXPECT_GT(after.hits + after.misses - before.hits - before.misses, 0);
    EXPECT_EQ(after.fallback - before.fallback, 0) << "step " << s;
    first = false;
    const ScheduleResult cold = scheduler.schedule(adm.admitted());
    EXPECT_TRUE(cold.feasible);
    if (!cold.feasible) continue;
    const double warm_obj =
        lp_objective(scheduler, adm.admitted(), adm.allocations());
    const double cold_obj = lp_objective(scheduler, adm.admitted(), cold.alloc);
    EXPECT_LE(std::abs(warm_obj - cold_obj),
              1e-6 * std::max(1.0, std::abs(cold_obj)))
        << "step " << s << ": warm " << warm_obj << " cold " << cold_obj;
  }
  const Paths end;
  EXPECT_EQ(end.misses - start.misses, 1);  // the first round only
  EXPECT_GT(end.primal + end.dual - start.primal - start.dual, 0);
  return end.composite - start.composite;
}

TEST_F(RestartFixture, SingleArrivalsRestartWarmAtTheColdObjective) {
  const TrafficScheduler scheduler(topo, catalog, lp_only());
  Churn churn(catalog, 9001, 1, 10.0, 50.0, 60);
  EXPECT_EQ(replay_against_cold(scheduler, churn, 300), 0)
      << "single arrivals and withdraws restart primal or dual feasible";
}

TEST_F(RestartFixture, BurstsWithRejectsRestartWarmAtTheColdObjective) {
  const TrafficScheduler scheduler(topo, catalog, lp_only());
  Churn churn(catalog, 9002, 8, 30.0, 150.0, 60);
  replay_against_cold(scheduler, churn, 120);
  EXPECT_GT(churn.rejected(), 0) << "the replay never reached the limit";
}

TEST_F(RestartFixture, KeptRepairsGiveTheBitsOfRepairsSolvedAgain) {
  // Two chains see the same rounds; one forgets its unconstrained repairs
  // before each. Their LP bases stay equal (repairs do not feed the LP),
  // so every allocation must match bit for bit. Each chain's branch &
  // bound solves are its new unconstrained repairs plus its capacitated
  // MILPs: with equal decisions the capacitated ones match, so a kept
  // entry that fits costs the keeping chain no solve at all.
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  AdmissionController adm(scheduler, AdmissionStrategy::kBate);
  Churn churn(catalog, 9003, 1, 10.0, 50.0, 60);
  ScheduleBasisCache keep;
  ScheduleBasisCache forget;
  std::int64_t kept_fits = 0;
  for (int s = 0; s < 200; ++s) {
    if (!churn.step(adm)) continue;
    const std::vector<Demand>& set = adm.admitted();
    const auto before = keep.repairs;
    std::int64_t solves = counter("bate_bnb_solves_total");
    const ScheduleResult a = scheduler.schedule(set, {}, &keep);
    const std::int64_t keep_solves = counter("bate_bnb_solves_total") - solves;
    forget.repairs.clear();
    solves = counter("bate_bnb_solves_total");
    const ScheduleResult b = scheduler.schedule(set, {}, &forget);
    const std::int64_t forget_solves =
        counter("bate_bnb_solves_total") - solves;
    ASSERT_EQ(a.feasible, b.feasible) << "step " << s;
    EXPECT_TRUE(same_bits(a.alloc, b.alloc)) << "step " << s;
    EXPECT_EQ(keep.lp.basis.basic, forget.lp.basis.basic) << "step " << s;

    std::int64_t fresh = 0;
    for (const auto& [id, memo] : keep.repairs) {
      fresh += before.count(id) == 0 ? 1 : 0;
    }
    EXPECT_EQ(keep_solves - fresh,
              forget_solves - static_cast<std::int64_t>(forget.repairs.size()))
        << "step " << s << ": the chains ran different capacitated MILPs";
    for (std::size_t i = 0; i < set.size() && a.feasible; ++i) {
      const auto it = before.find(set[i].id);
      kept_fits += it != before.end() &&
                   keep.repairs.count(set[i].id) != 0 &&
                   it->second.status == SolveStatus::kOptimal &&
                   same_bits({it->second.repaired}, {a.alloc[i]});
    }
  }
  EXPECT_GT(kept_fits, 0)
      << "no round took a kept repair: the checks above proved nothing";
}

TEST_F(RestartFixture, KeptRepairThatFitsSolvesNoMilpInLaterRounds) {
  // A 0.9999 demand whose LP allocation misses its target needs a repair.
  // Its unconstrained repair is solved in the first round; a best-effort
  // neighbour on the same pair then moves the residual on its links every
  // round, yet the repair still fits, so no later round solves a MILP.
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const int pair = catalog.pair_index({0, 5});
  const std::vector<Demand> alone = {paper_demand(1, pair, 40.0, 0.9999)};
  const std::vector<Demand> shared = {alone[0],
                                      paper_demand(2, pair, 5.0, 0.0)};
  ScheduleBasisCache cache;
  std::int64_t solves = counter("bate_bnb_solves_total");
  ASSERT_TRUE(scheduler.schedule(alone, {}, &cache).feasible);
  ASSERT_EQ(counter("bate_bnb_solves_total") - solves, 1)
      << "the demand no longer needs a repair";
  ASSERT_EQ(cache.repairs.count(1), 1u);
  for (const auto* set : {&shared, &alone, &shared}) {
    solves = counter("bate_bnb_solves_total");
    const ScheduleResult r = scheduler.schedule(*set, {}, &cache);
    ASSERT_TRUE(r.feasible);
    EXPECT_EQ(counter("bate_bnb_solves_total") - solves, 0)
        << set->size() << " demands";
    EXPECT_EQ(r.alloc[0], cache.repairs.at(1).repaired);
    // An uncached call solves the same repair again and agrees.
    EXPECT_EQ(scheduler.schedule(*set).alloc, r.alloc);
  }
}

TEST_F(RestartFixture, ShortCapacityLeavesADemandBelowTarget) {
  // With every link at 0.8x the demand, the LP still covers it, but no
  // allocation meets 0.9999 with full bandwidth: the repair pass fails.
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  obs::Gauge& below =
      obs::Registry::global().gauge("bate_scheduler_demands_below_target");
  const std::vector<Demand> demands = {
      paper_demand(1, catalog.pair_index({0, 5}), 40.0, 0.9999)};
  const std::vector<double> capacity(
      static_cast<std::size_t>(topo.link_count()), 0.8 * 40.0);
  below.set(-1.0);
  ASSERT_TRUE(scheduler.schedule(demands, capacity).feasible);
  EXPECT_EQ(below.value(), -1.0) << "an uncached call is not a round";
  ScheduleBasisCache cache;
  const ScheduleResult r = scheduler.schedule(demands, capacity, &cache);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(below.value(), 1.0);
  const auto dp = scheduler.demand_patterns(demands[0]);
  EXPECT_LT(TrafficScheduler::pattern_hard_availability(*dp, demands[0],
                                                        r.alloc[0]),
            0.9999);
  ASSERT_TRUE(scheduler.schedule(demands, {}, &cache).feasible);
  EXPECT_EQ(below.value(), 0.0) << "full capacity lets the repair through";
}

TEST_F(RestartFixture, SteadyChurnLeavesNoDemandBelowTarget) {
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  obs::Gauge& below =
      obs::Registry::global().gauge("bate_scheduler_demands_below_target");
  AdmissionController adm(scheduler, AdmissionStrategy::kBate);
  Churn churn(catalog, 9001, 1, 10.0, 50.0, 60);
  int rounds = 0;
  for (int s = 0; s < 300; ++s) {
    below.set(-1.0);
    if (!churn.step(adm)) continue;
    ++rounds;
    EXPECT_EQ(below.value(), 0.0) << "step " << s;
  }
  EXPECT_GT(rounds, 250);
}

/// Replays seeded contended churn (bursts of 8 at 30-150 Mbps) at `y` and
/// checks every demand the hard-repair pass looked at against a fresh
/// capacitated repair MILP over the residual the pass saw: the objective
/// matches within 1e-9 relative, and the allocation meets beta_d whenever
/// the fresh one does. A second chain without hard repair gives the LP
/// allocation the pass started from (repairs do not feed the LP).
void expect_repairs_match_fresh_solves(const Topology& topo,
                                       const TunnelCatalog& catalog, int y,
                                       std::uint64_t seed, int steps) {
  SchedulerConfig cfg;
  cfg.max_failures = y;
  const TrafficScheduler scheduler(topo, catalog, cfg);
  cfg.hard_repair = false;
  const TrafficScheduler lp_only(topo, catalog, cfg);
  AdmissionController adm(scheduler, AdmissionStrategy::kBate);
  Churn churn(catalog, seed, 8, 30.0, 150.0, 60);
  ScheduleBasisCache repaired_chain;
  ScheduleBasisCache lp_chain;
  int checked = 0;
  int moved = 0;
  for (int s = 0; s < steps; ++s) {
    if (!churn.step(adm)) continue;
    const std::vector<Demand>& set = adm.admitted();
    const ScheduleResult r = scheduler.schedule(set, {}, &repaired_chain);
    const ScheduleResult lp = lp_only.schedule(set, {}, &lp_chain);
    ASSERT_EQ(r.feasible, lp.feasible) << "step " << s;
    if (!r.feasible) continue;
    std::vector<double> usage = link_usage(topo, catalog, set, lp.alloc);
    const auto add = [&](const Demand& d, const Allocation& a, double sign) {
      for (std::size_t p = 0; p < d.pairs.size(); ++p) {
        const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
        for (std::size_t t = 0; t < tunnels.size(); ++t) {
          for (const LinkId e : tunnels[t].links) {
            usage[static_cast<std::size_t>(e)] += sign * a[p][t];
          }
        }
      }
    };
    for (std::size_t i = 0; i < set.size(); ++i) {
      const Demand& d = set[i];
      const auto dp = scheduler.demand_patterns(d);
      const double beta = d.availability_target;
      if (beta <= 0.0 ||
          TrafficScheduler::pattern_hard_availability(*dp, d, lp.alloc[i]) +
                  1e-9 >=
              beta) {
        EXPECT_EQ(r.alloc[i], lp.alloc[i]) << "step " << s << " demand " << i;
        continue;
      }
      add(d, lp.alloc[i], -1.0);
      std::vector<double> residual;
      for (const PairDemand& pd : d.pairs) {
        for (const LinkId e : tunnel_link_union(catalog.tunnels(pd.pair))) {
          residual.push_back(std::max(
              0.0, topo.link(e).capacity - usage[static_cast<std::size_t>(e)]));
        }
      }
      const RepairMemo fresh = scheduler.solve_repair(d, residual);
      ++checked;
      if (fresh.status == SolveStatus::kInfeasible) {
        EXPECT_EQ(r.alloc[i], lp.alloc[i]) << "step " << s << " demand " << i;
      } else if (fresh.status == SolveStatus::kOptimal) {
        const std::vector<Demand> one = {d};
        const double want = lp_objective(scheduler, one, {fresh.repaired});
        const double got = lp_objective(scheduler, one, {r.alloc[i]});
        EXPECT_LE(std::abs(got - want), 1e-9 * std::max(1.0, std::abs(want)))
            << "step " << s << " demand " << i << ": " << got << " vs "
            << want;
        if (TrafficScheduler::pattern_hard_availability(*dp, d,
                                                        fresh.repaired) +
                1e-9 >=
            beta) {
          EXPECT_GE(TrafficScheduler::pattern_hard_availability(*dp, d,
                                                                r.alloc[i]) +
                        1e-9,
                    beta)
              << "step " << s << " demand " << i;
        }
        moved += r.alloc[i] != lp.alloc[i];
      }
      add(d, r.alloc[i], 1.0);
    }
  }
  EXPECT_GT(checked, 0);
  EXPECT_GT(moved, 0) << "no repair changed an allocation";
}

TEST_F(RestartFixture, ContendedRepairsMatchAFreshCapacitatedSolve) {
  expect_repairs_match_fresh_solves(topo, catalog, 2, 9001, 160);
}

TEST_F(RestartFixture, ContendedRepairsOnB4MatchAFreshCapacitatedSolve) {
  const Topology b4_topo = b4();
  const TunnelCatalog b4_catalog = TunnelCatalog::build_all_pairs(b4_topo, 4);
  expect_repairs_match_fresh_solves(b4_topo, b4_catalog, 3, 9002, 80);
}

TEST_F(RestartFixture, OnlyTheCachedChainCountsAsRounds) {
  // bate_scheduler_round_us, rounds_total and the LP-size gauges describe
  // the controller's rounds; any other schedule() call is a probe.
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  obs::Histogram& round_us =
      obs::Registry::global().histogram("bate_scheduler_round_us");
  AdmissionController adm(scheduler, AdmissionStrategy::kBate);
  Churn churn(catalog, 9004, 4, 10.0, 50.0, 60);
  for (int s = 0; s < 10; ++s) churn.step(adm);
  ASSERT_FALSE(adm.admitted().empty());

  const std::int64_t rounds0 = counter("bate_scheduler_rounds_total");
  const std::int64_t probes0 = counter("bate_scheduler_probes_total");
  const std::int64_t hist0 = round_us.count();
  ASSERT_TRUE(scheduler.schedule(adm.admitted()).feasible);
  EXPECT_EQ(counter("bate_scheduler_rounds_total"), rounds0);
  EXPECT_EQ(counter("bate_scheduler_probes_total"), probes0 + 1);
  EXPECT_EQ(round_us.count(), hist0);

  ASSERT_TRUE(adm.reschedule());
  EXPECT_EQ(counter("bate_scheduler_rounds_total"), rounds0 + 1);
  EXPECT_EQ(counter("bate_scheduler_probes_total"), probes0 + 1);
  EXPECT_EQ(round_us.count(), hist0 + 1);
  EXPECT_EQ(obs::Registry::global().gauge("bate_scheduler_demands").value(),
            static_cast<double>(adm.admitted().size()));
}

// --- map_onto edge cases ------------------------------------------------

/// Index of old row `r` in the new model, or -1, by the same identity
/// map_onto uses (demand blocks by id, capacity rows by link).
int map_row(const ScheduleLayout& from, const std::vector<Demand>& from_set,
            const ScheduleLayout& to, const std::vector<Demand>& to_set,
            int r) {
  for (std::size_t e = 0; e < from.link_rows.size(); ++e) {
    if (from.link_rows[e] == r) return to.link_rows[e];
  }
  for (std::size_t i = 0; i < from_set.size(); ++i) {
    const DemandBlocks& a = from.demands[i];
    for (std::size_t j = 0; j < to_set.size(); ++j) {
      if (to_set[j].id != from_set[i].id) continue;
      const DemandBlocks& b = to.demands[j];
      if (r >= a.cover_first && r < a.cover_first + a.cover_count) {
        return b.cover_first + (r - a.cover_first);
      }
      if (r >= a.avail_first && r < a.avail_first + a.avail_count) {
        return b.avail_first + (r - a.avail_first);
      }
    }
  }
  return -1;
}

/// Every row holds a distinct column marked basic, and nothing else is.
void expect_valid(const Basis& b, const Model& model) {
  ASSERT_TRUE(b.compatible_with(model));
  std::vector<char> seen(b.status.size(), 0);
  for (const int c : b.basic) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, static_cast<int>(b.status.size()));
    EXPECT_FALSE(seen[static_cast<std::size_t>(c)]) << "column " << c;
    seen[static_cast<std::size_t>(c)] = 1;
    EXPECT_EQ(b.status[static_cast<std::size_t>(c)], VarStatus::kBasic);
  }
  const auto basic = std::count(b.status.begin(), b.status.end(),
                                VarStatus::kBasic);
  EXPECT_EQ(basic, static_cast<long>(b.basic.size()));
}

struct MapFixture : RestartFixture {
  // Enough load that capacity rows bind and repairs run.
  std::vector<Demand> set() const {
    std::vector<Demand> out;
    const double betas[] = {0.99, 0.999, 0.9999, 0.95};
    for (int i = 0; i < 24; ++i) {
      out.push_back(paper_demand(i + 1, (i * 7) % catalog.pair_count(),
                                 60.0 + 10.0 * (i % 5), betas[i % 4]));
    }
    return out;
  }

  /// cold objective of `demands`, against which restarts are checked.
  double cold_objective(const TrafficScheduler& s,
                        const std::vector<Demand>& demands) const {
    return lp_objective(s, demands, s.schedule(demands).alloc);
  }
};

TEST_F(MapFixture, SlackAwayFromItsOwnRowKeepsItsRowPosition) {
  const TrafficScheduler scheduler(topo, catalog, lp_only());
  std::vector<Demand> demands = set();
  ScheduleBasisCache cache;
  ASSERT_TRUE(scheduler.schedule(demands, {}, &cache).feasible);
  ScheduleLayout old_layout;
  scheduler.build_schedule_model(demands, {}, &old_layout);

  // Put the slack of a row r1 that holds its own slack at the position of a
  // row r2 that holds a structural column, and that column at r1: the same
  // basic set, as eta updates leave it.
  Basis& b = cache.lp.basis;
  const int n = b.structural_count;
  int r1 = -1;
  int r2 = -1;
  for (int r = 0; r < b.constraint_count; ++r) {
    const int c = b.basic[static_cast<std::size_t>(r)];
    if (r1 < 0 && c == n + r) r1 = r;
    if (r2 < 0 && c < n) r2 = r;
  }
  ASSERT_GE(r1, 0);
  ASSERT_GE(r2, 0);
  const int structural = b.basic[static_cast<std::size_t>(r2)];
  b.basic[static_cast<std::size_t>(r1)] = structural;
  b.basic[static_cast<std::size_t>(r2)] = n + r1;

  // The next round sees the same demands in reverse order: every block
  // moves.
  std::vector<Demand> next(demands.rbegin(), demands.rend());
  ScheduleLayout layout;
  const Model model = scheduler.build_schedule_model(next, {}, &layout);
  ScheduleBasisCache probe = cache;
  const auto identity = probe.map_onto(next, layout, model);
  for (const DemandIdentity id : identity) EXPECT_EQ(id, DemandIdentity::kKept);
  const Basis& mapped = probe.lp.basis;
  expect_valid(mapped, model);
  const int nn = model.variable_count();
  const int new_r1 = map_row(old_layout, demands, layout, next, r1);
  const int new_r2 = map_row(old_layout, demands, layout, next, r2);
  ASSERT_GE(new_r1, 0);
  ASSERT_GE(new_r2, 0);
  EXPECT_EQ(mapped.basic[static_cast<std::size_t>(new_r2)], nn + new_r1)
      << "the slack must hold the position of the row it sat at";

  const ScheduleResult warm = scheduler.schedule(next, {}, &cache);
  ASSERT_TRUE(warm.feasible);
  EXPECT_TRUE(cache.lp.used);
  const double cold = cold_objective(scheduler, next);
  EXPECT_NEAR(lp_objective(scheduler, next, warm.alloc), cold, 1e-6 * cold);
}

TEST_F(MapFixture, DepartedColumnInACapacityRowGivesWay) {
  const TrafficScheduler scheduler(topo, catalog, lp_only());
  std::vector<Demand> demands = set();
  ScheduleBasisCache cache;
  ASSERT_TRUE(scheduler.schedule(demands, {}, &cache).feasible);
  ScheduleLayout old_layout;
  scheduler.build_schedule_model(demands, {}, &old_layout);

  // Move a basic g column of the last demand into a capacity row's
  // position, and that row's basic column into the g column's position.
  Basis& b = cache.lp.basis;
  const DemandBlocks& gone = old_layout.demands.back();
  int r_g = -1;
  for (int r = 0; r < b.constraint_count && r_g < 0; ++r) {
    const int c = b.basic[static_cast<std::size_t>(r)];
    if (c >= gone.g_first && c < gone.g_first + gone.g_count) r_g = r;
  }
  ASSERT_GE(r_g, 0);
  int r_cap = -1;
  for (const int row : old_layout.link_rows) {
    if (row >= 0 && row != r_g) {
      r_cap = row;
      break;
    }
  }
  ASSERT_GE(r_cap, 0);
  std::swap(b.basic[static_cast<std::size_t>(r_g)],
            b.basic[static_cast<std::size_t>(r_cap)]);
  const int displaced = b.basic[static_cast<std::size_t>(r_g)];

  std::vector<Demand> next = demands;
  next.pop_back();
  ScheduleLayout layout;
  const Model model = scheduler.build_schedule_model(next, {}, &layout);
  ScheduleBasisCache probe = cache;
  probe.map_onto(next, layout, model);
  expect_valid(probe.lp.basis, model);
  const int new_cap = map_row(old_layout, demands, layout, next, r_cap);
  ASSERT_GE(new_cap, 0);
  EXPECT_GE(probe.lp.basis.basic[static_cast<std::size_t>(new_cap)], 0);
  // The capacity row's own former basic column sat at a departed row: it
  // survives, so it must still be basic somewhere.
  const int n = b.structural_count;
  int displaced_new = -1;
  if (displaced >= n) {
    const int row = map_row(old_layout, demands, layout, next, displaced - n);
    if (row >= 0) displaced_new = model.variable_count() + row;
  }
  if (displaced_new >= 0) {
    EXPECT_EQ(probe.lp.basis.status[static_cast<std::size_t>(displaced_new)],
              VarStatus::kBasic);
  }

  const ScheduleResult warm = scheduler.schedule(next, {}, &cache);
  ASSERT_TRUE(warm.feasible);
  EXPECT_TRUE(cache.lp.used);
  const double cold = cold_objective(scheduler, next);
  EXPECT_NEAR(lp_objective(scheduler, next, warm.alloc), cold, 1e-6 * cold);
}

TEST_F(MapFixture, RepeatedAndChangedIdsMapAsNewAndDropTheirRepair) {
  const TrafficScheduler scheduler(topo, catalog, SchedulerConfig{});
  const std::vector<Demand> demands = set();
  ScheduleBasisCache cache;
  ASSERT_TRUE(scheduler.schedule(demands, {}, &cache).feasible);
  ASSERT_FALSE(cache.repairs.empty()) << "no demand needed a repair";

  // Mark every kept repair with an all-zero allocation: it fits any
  // residual, so a demand that takes its entry shows the mark. On the
  // unchanged set every kept demand that needs a repair takes it.
  for (auto& [id, memo] : cache.repairs) {
    memo.status = SolveStatus::kOptimal;
    for (auto& per_pair : memo.repaired) {
      std::fill(per_pair.begin(), per_pair.end(), 0.0);
    }
  }
  const auto marked = [](const Allocation& a) {
    return std::all_of(a.begin(), a.end(), [](const std::vector<double>& r) {
      return std::all_of(r.begin(), r.end(), [](double f) { return f == 0.0; });
    });
  };
  std::size_t at = demands.size();
  {
    ScheduleBasisCache c = cache;
    const ScheduleResult r = scheduler.schedule(demands, {}, &c);
    ASSERT_TRUE(r.feasible);
    for (std::size_t i = 0; i < demands.size() && at == demands.size(); ++i) {
      if (marked(r.alloc[i])) at = i;
    }
  }
  ASSERT_LT(at, demands.size()) << "no repair was reused on the same set";
  const DemandId target = demands[at].id;

  // Changed under a kept id (a field the model does not read): new, and
  // its entry is dropped and solved again.
  {
    std::vector<Demand> next = demands;
    next[at].charge += 1.0;
    ScheduleLayout layout;
    const Model model = scheduler.build_schedule_model(next, {}, &layout);
    ScheduleBasisCache probe = cache;
    const auto identity = probe.map_onto(next, layout, model);
    EXPECT_EQ(identity[at], DemandIdentity::kNew);
    EXPECT_EQ(probe.repairs.count(target), 0u);
    const DemandBlocks& blk = layout.demands[at];
    const auto& status = probe.lp.basis.status;
    for (int k = 0; k < blk.g_count; ++k) {
      EXPECT_EQ(status[static_cast<std::size_t>(blk.g_first + k)],
                VarStatus::kAtLower);
    }
    for (int k = 0; k < blk.cover_count; ++k) {
      const int r = blk.cover_first + k;
      EXPECT_EQ(probe.lp.basis.basic[static_cast<std::size_t>(r)],
                model.variable_count() + r);
    }
    ScheduleBasisCache c = cache;
    const ScheduleResult r = scheduler.schedule(next, {}, &c);
    ASSERT_TRUE(r.feasible);
    EXPECT_FALSE(marked(r.alloc[at]));
    ASSERT_EQ(c.repairs.count(target), 1u);
    EXPECT_FALSE(marked(c.repairs.at(target).repaired));
  }

  // Repeated: both copies are new, neither reuses, neither is remembered.
  {
    std::vector<Demand> next = demands;
    next.push_back(demands[at]);
    ScheduleLayout layout;
    const Model model = scheduler.build_schedule_model(next, {}, &layout);
    ScheduleBasisCache probe = cache;
    const auto identity = probe.map_onto(next, layout, model);
    EXPECT_EQ(identity[at], DemandIdentity::kRepeated);
    EXPECT_EQ(identity.back(), DemandIdentity::kRepeated);
    expect_valid(probe.lp.basis, model);
    ScheduleBasisCache c = cache;
    const ScheduleResult r = scheduler.schedule(next, {}, &c);
    ASSERT_TRUE(r.feasible);
    EXPECT_FALSE(marked(r.alloc[at]));
    EXPECT_FALSE(marked(r.alloc.back()));
    EXPECT_EQ(c.repairs.count(target), 0u);
  }

  // An infeasible LP round keeps the entries of the demands it kept.
  {
    ScheduleBasisCache c = cache;
    const std::vector<double> none(
        static_cast<std::size_t>(topo.link_count()), 0.0);
    ASSERT_FALSE(scheduler.schedule(demands, none, &c).feasible);
    EXPECT_EQ(c.repairs.size(), cache.repairs.size());
    const ScheduleResult r = scheduler.schedule(demands, {}, &c);
    ASSERT_TRUE(r.feasible);
    EXPECT_TRUE(std::any_of(r.alloc.begin(), r.alloc.end(), marked));
  }
}

TEST_F(MapFixture, NothingMappedRunsCold) {
  const TrafficScheduler scheduler(topo, catalog, lp_only());
  std::vector<Demand> demands = set();
  ScheduleBasisCache cache;
  ASSERT_TRUE(scheduler.schedule(demands, {}, &cache).feasible);
  EXPECT_FALSE(cache.lp.used);  // the first round is cold
  for (Demand& d : demands) d.id += 1000;
  ASSERT_TRUE(scheduler.schedule(demands, {}, &cache).feasible);
  EXPECT_FALSE(cache.lp.used);
  ASSERT_TRUE(scheduler.schedule(demands, {}, &cache).feasible);
  EXPECT_TRUE(cache.lp.used);
}

}  // namespace
}  // namespace bate
