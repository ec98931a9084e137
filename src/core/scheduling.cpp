#include "core/scheduling.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/branch_bound.h"
#include "solver/model.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace bate {

namespace {

/// One registry flush per schedule() call (obs: bate_scheduler_*). A call
/// chained through a ScheduleBasisCache (`warm` non-null) is a scheduling
/// round, the controller's; any other call (an admission probe or witness,
/// a TE scheme's allocation) only counts as a probe, so per-round figures
/// divide by rounds. Warm-start hit/miss reads WarmStart::used, which
/// solve_lp just set.
void record_schedule_round(const Model& model, long demand_count,
                           long scenario_count, const WarmStart* warm,
                           std::int64_t round_us) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  if (warm == nullptr) {
    static obs::Counter& probes = reg.counter("bate_scheduler_probes_total");
    probes.inc();
    return;
  }
  static obs::Counter& rounds = reg.counter("bate_scheduler_rounds_total");
  static obs::Counter& warm_hits =
      reg.counter("bate_scheduler_warm_hits_total");
  static obs::Counter& warm_misses =
      reg.counter("bate_scheduler_warm_misses_total");
  static obs::Histogram& round_hist =
      reg.histogram("bate_scheduler_round_us");
  static obs::Gauge& demands = reg.gauge("bate_scheduler_demands");
  static obs::Gauge& scenarios = reg.gauge("bate_scheduler_scenarios");
  static obs::Gauge& rows = reg.gauge("bate_scheduler_lp_rows");
  static obs::Gauge& cols = reg.gauge("bate_scheduler_lp_cols");
  rounds.inc();
  (warm->used ? warm_hits : warm_misses).inc();
  round_hist.record(round_us);
  demands.set(static_cast<double>(demand_count));
  scenarios.set(static_cast<double>(scenario_count));
  rows.set(static_cast<double>(model.constraint_count()));
  cols.set(static_cast<double>(model.variable_count()));
}

/// Bitwise equality: the repair memo reuses a result only on identical bits.
bool same_bits(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(double)) == 0);
}

bool same_bits(const Allocation& a, const Allocation& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t p = 0; p < a.size(); ++p) {
    if (!same_bits(a[p], b[p])) return false;
  }
  return true;
}

/// Tie-break weight: how strongly a demand should prefer reliable tunnels.
/// Grows with the availability target (in "nines") so that, when two
/// demands compete for a reliable path, the LP hands it to the one with the
/// stricter target — this is what reproduces the Fig 2d assignment.
double availability_weight(double beta) {
  if (beta <= 0.0) return 0.0;
  return std::min(6.0, -std::log10(std::max(1.0 - beta, 1e-7)));
}

/// Concatenated tunnel list of a multi-pair demand, pair-major. Also
/// reports, per pair position, the [begin, end) range in the joint list.
std::vector<Tunnel> joint_tunnels(const TunnelCatalog& catalog,
                                  const Demand& demand,
                                  std::vector<std::pair<int, int>>& ranges) {
  std::vector<Tunnel> joint;
  ranges.clear();
  for (const PairDemand& pd : demand.pairs) {
    const auto& tunnels = catalog.tunnels(pd.pair);
    const int begin = static_cast<int>(joint.size());
    joint.insert(joint.end(), tunnels.begin(), tunnels.end());
    ranges.push_back({begin, static_cast<int>(joint.size())});
  }
  return joint;
}

/// The per-(pair, pattern) scenario LPs behind pattern_capability(): for
/// every pair, the max total flow the up tunnels of each positive-
/// probability pattern carry against full link capacities (-1 for unsolved
/// zero-probability patterns). Each pattern solves the all-tunnels-up
/// template with its down tunnels fixed to [0, 0]; pairs run on the shared
/// pool into pre-sized slots.
std::vector<std::vector<double>> pattern_capabilities(
    const Topology& topo, const TunnelCatalog& catalog,
    std::span<const PatternDistribution> dists, const SimplexOptions& lp) {
  BATE_ASSERT_MSG(dists.size() == static_cast<std::size_t>(catalog.pair_count()),
                  "capability: distribution set does not match catalog");
  const int pairs = catalog.pair_count();
  std::vector<std::vector<double>> capability(static_cast<std::size_t>(pairs));
  ThreadPool::shared().parallel_for(pairs, [&](int k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const auto& tunnels = catalog.tunnels(k);
    const PatternDistribution& dist = dists[sk];
    auto& cap = capability[sk];
    cap.assign(dist.prob.size(), -1.0);
    if (cap.empty()) return;
    cap[0] = 0.0;  // all tunnels down: nothing deliverable
    // A tunnel without links would make the flow LP unbounded; leave the
    // pair's capabilities unknown rather than fabricate a bound.
    for (const Tunnel& t : tunnels) {
      if (t.links.empty()) return;
    }

    // Template: maximize total flow over ALL tunnels subject to full link
    // capacities.
    Model tmpl;
    tmpl.set_sense(Sense::kMaximize);
    for (std::size_t t = 0; t < tunnels.size(); ++t) {
      tmpl.add_variable(0.0, kInfinity, 1.0);
    }
    for (const LinkId e : tunnel_link_union(tunnels)) {
      std::vector<Term> row;
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (tunnels[t].uses(e)) row.push_back({static_cast<int>(t), 1.0});
      }
      tmpl.add_constraint(std::move(row), Relation::kLessEqual,
                          std::max(0.0, topo.link(e).capacity));
    }

    const auto patterns = static_cast<PatternMask>(dist.prob.size());
    for (PatternMask s = 1; s < patterns; ++s) {
      if (dist.prob[s] <= 0.0) continue;
      Model inst = tmpl;
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (!((s >> t) & 1u)) {
          Variable& v = inst.variable(static_cast<int>(t));
          v.lower = 0.0;
          v.upper = 0.0;
        }
      }
      // cold-start: one tiny LP per pattern, solved once at construction;
      // solving each from scratch keeps every entry independent of the
      // order the patterns are visited in.
      const Solution sol = solve_lp(inst, lp);
      // Each instance maximizes a bounded flow over a nonempty feasible
      // region (zero flow), so non-optimal statuses cannot occur; keep the
      // entry unknown if a solver limit ever produces one anyway.
      if (sol.status == SolveStatus::kOptimal) {
        cap[s] = std::max(0.0, sol.objective);
      }
    }
  });
  return capability;
}

}  // namespace

std::vector<DemandIdentity> ScheduleBasisCache::map_onto(
    std::span<const Demand> next, const ScheduleLayout& layout,
    const Model& model) {
  const int n = model.variable_count();
  const int m = model.constraint_count();
  const Basis& old = lp.basis;
  const int n0 = old.structural_count;
  const int m0 = old.constraint_count;
  const auto sz = [](int i) { return static_cast<std::size_t>(i); };
  const bool have_old = !old.empty() &&
                        static_cast<int>(old.basic.size()) == m0 &&
                        static_cast<int>(old.status.size()) == n0 + m0;

  // Last round's index of every id it held once (-1: held more than once),
  // and how often each id occurs now.
  std::unordered_map<DemandId, int> prev;
  prev.reserve(demands.size());
  for (std::size_t j = 0; j < demands.size(); ++j) {
    const auto [it, fresh] = prev.emplace(demands[j].id, static_cast<int>(j));
    if (!fresh) it->second = -1;
  }
  std::unordered_map<DemandId, int> count;
  count.reserve(next.size());
  for (const Demand& d : next) ++count[d.id];

  // Old index -> new index of every structural column and row that maps.
  std::vector<int> col_to(have_old ? sz(n0) : 0, -1);
  std::vector<int> row_to(have_old ? sz(m0) : 0, -1);
  std::vector<DemandIdentity> identity(next.size(), DemandIdentity::kNew);
  bool any_col = false;
  for (std::size_t i = 0; i < next.size(); ++i) {
    if (count[next[i].id] > 1) {
      identity[i] = DemandIdentity::kRepeated;
      continue;
    }
    const auto it = prev.find(next[i].id);
    if (!have_old || it == prev.end() || it->second < 0) continue;
    const DemandBlocks& a = blocks[sz(it->second)];
    const DemandBlocks& b = layout.demands[i];
    if (!(demands[sz(it->second)] == next[i]) || a.g_count != b.g_count ||
        a.cover_count != b.cover_count || a.b_count != b.b_count ||
        a.avail_count != b.avail_count || a.g_first + a.g_count > n0 ||
        a.b_first + a.b_count > n0 || a.cover_first + a.cover_count > m0 ||
        a.avail_first + a.avail_count > m0) {
      continue;
    }
    identity[i] = DemandIdentity::kKept;
    for (int k = 0; k < a.g_count; ++k) {
      col_to[sz(a.g_first + k)] = b.g_first + k;
    }
    for (int k = 0; k < a.b_count; ++k) {
      col_to[sz(a.b_first + k)] = b.b_first + k;
    }
    for (int k = 0; k < a.cover_count; ++k) {
      row_to[sz(a.cover_first + k)] = b.cover_first + k;
    }
    for (int k = 0; k < a.avail_count; ++k) {
      row_to[sz(a.avail_first + k)] = b.avail_first + k;
    }
    any_col = any_col || a.g_count + a.b_count > 0;
  }

  Basis mapped;
  if (any_col) {
    for (std::size_t e = 0; e < link_rows.size() && e < layout.link_rows.size();
         ++e) {
      if (link_rows[e] >= 0 && link_rows[e] < m0 && layout.link_rows[e] >= 0) {
        row_to[sz(link_rows[e])] = layout.link_rows[e];
      }
    }
    mapped.structural_count = n;
    mapped.constraint_count = m;
    mapped.basic.assign(sz(m), -1);
    mapped.status.assign(sz(n + m), VarStatus::kAtLower);
    // Slacks travel with their rows: an eta update leaves a slack basic at
    // whichever row position its entering pivot took, and presolve maps
    // basic columns position by position, so a slack kept at its own row
    // instead would change the basic set.
    const auto to_new = [&](int c) {
      if (c < n0) return col_to[sz(c)];
      const int r = row_to[sz(c - n0)];
      return r < 0 ? -1 : n + r;
    };
    for (int c = 0; c < n0 + m0; ++c) {
      const int nc = to_new(c);
      if (nc >= 0 && old.status[sz(c)] == VarStatus::kAtUpper) {
        mapped.status[sz(nc)] = VarStatus::kAtUpper;
      }
    }
    std::vector<int> orphans;  // surviving basic columns whose row departed
    std::vector<char> old_row(sz(m), 0);
    for (int r = 0; r < m0; ++r) {
      const int c = old.basic[sz(r)];
      const int nc = c >= 0 && c < n0 + m0 ? to_new(c) : -1;
      if (row_to[sz(r)] >= 0) old_row[sz(row_to[sz(r)])] = 1;
      if (nc < 0) continue;
      mapped.status[sz(nc)] = VarStatus::kBasic;
      if (row_to[sz(r)] >= 0) {
        mapped.basic[sz(row_to[sz(r)])] = nc;
      } else {
        orphans.push_back(nc);
      }
    }
    for (int r = 0; r < m; ++r) {
      if (old_row[sz(r)]) continue;
      mapped.basic[sz(r)] = n + r;  // a new row starts on its own slack
      mapped.status[sz(n + r)] = VarStatus::kBasic;
    }
    std::size_t next_orphan = 0;
    int free_slack = 0;
    for (int r = 0; r < m; ++r) {
      if (mapped.basic[sz(r)] >= 0) continue;
      int c = n + r;
      if (next_orphan < orphans.size()) {
        c = orphans[next_orphan++];
      } else if (mapped.status[sz(c)] == VarStatus::kBasic) {
        while (mapped.status[sz(n + free_slack)] == VarStatus::kBasic) {
          ++free_slack;
        }
        c = n + free_slack;
      }
      mapped.basic[sz(r)] = c;
      mapped.status[sz(c)] = VarStatus::kBasic;
    }
    // More orphans than rows to take them: the rest leave the basis.
    for (; next_orphan < orphans.size(); ++next_orphan) {
      mapped.status[sz(orphans[next_orphan])] = VarStatus::kAtLower;
    }
  }
  lp.basis = std::move(mapped);
  demands.assign(next.begin(), next.end());
  blocks = layout.demands;
  link_rows = layout.link_rows;
  return identity;
}

TrafficScheduler::TrafficScheduler(const Topology& topo,
                                   const TunnelCatalog& catalog,
                                   SchedulerConfig cfg)
    : topo_(&topo), catalog_(&catalog), cfg_(cfg) {
  if (cfg_.max_failures < 0) {
    throw std::invalid_argument("TrafficScheduler: max_failures < 0");
  }
  // Per-pair precomputation is independent across pairs: run it through the
  // shared pool into pre-sized slots (deterministic regardless of order).
  const int pairs = catalog.pair_count();
  lp_patterns_.resize(static_cast<std::size_t>(pairs));
  tunnel_avail_.resize(static_cast<std::size_t>(pairs));
  ThreadPool::shared().parallel_for(pairs, [&](int k) {
    const std::size_t sk = static_cast<std::size_t>(k);
    const auto& tunnels = catalog_->tunnels(k);
    lp_patterns_[sk] = pruned_patterns(*topo_, tunnels, cfg_.max_failures);
    tunnel_avail_[sk].reserve(tunnels.size());
    for (const Tunnel& t : tunnels) {
      tunnel_avail_[sk].push_back(t.availability(*topo_));
    }
  });
  single_patterns_.resize(static_cast<std::size_t>(pairs));
  for (int k = 0; k < pairs; ++k) {
    auto dp = std::make_shared<DemandPatterns>();
    dp->dist = lp_patterns_[static_cast<std::size_t>(k)];
    dp->ranges = {{0, dp->dist.tunnel_count}};
    single_patterns_[static_cast<std::size_t>(k)] = std::move(dp);
  }
  // Per-(pair, pattern) scenario LPs over the pool. Feeds the hard-repair
  // screen.
  capability_ = pattern_capabilities(topo, catalog, lp_patterns_, cfg_.lp);
}

const std::vector<double>& TrafficScheduler::pattern_capability(
    int pair) const {
  return capability_.at(static_cast<std::size_t>(pair));
}

const PatternDistribution& TrafficScheduler::lp_patterns(int pair) const {
  return lp_patterns_.at(static_cast<std::size_t>(pair));
}

std::shared_ptr<const DemandPatterns> TrafficScheduler::demand_patterns(
    const Demand& demand) const {
  if (demand.pairs.size() == 1) {
    return single_patterns_[static_cast<std::size_t>(demand.pairs[0].pair)];
  }
  std::vector<int> key;
  key.reserve(demand.pairs.size());
  for (const PairDemand& pd : demand.pairs) key.push_back(pd.pair);
  {
    MutexLock lock(joint_mu_);
    const auto it = joint_cache_.find(key);
    if (it != joint_cache_.end()) return it->second;
  }
  // Build outside the lock: the joint distribution is the expensive part and
  // distinct keys shouldn't serialize. A racing duplicate build of the same
  // key is harmless (identical value; first insert wins).
  auto dp = std::make_shared<DemandPatterns>();
  const auto joint = joint_tunnels(*catalog_, demand, dp->ranges);
  dp->dist = pruned_patterns(*topo_, joint, cfg_.max_failures);
  MutexLock lock(joint_mu_);
  return joint_cache_.emplace(std::move(key), std::move(dp)).first->second;
}

Model TrafficScheduler::build_schedule_model(
    std::span<const Demand> demands, std::span<const double> capacity_override,
    ScheduleLayout* layout) const {
  // Scheduling preconditions (Sec 3.3): the override must cover every link,
  // and each demand's target/requests must be well-formed — the LP rows
  // (1), (3), (4) silently produce garbage otherwise.
  BATE_ASSERT_MSG(
      capacity_override.empty() ||
          capacity_override.size() ==
              static_cast<std::size_t>(topo_->link_count()),
      "schedule: capacity override does not match topology");
  for (const Demand& d : demands) {
    BATE_ASSERT_MSG(d.availability_target >= 0.0 &&
                        d.availability_target <= 1.0,
                    "schedule: availability target outside [0,1]");
    for (const PairDemand& pd : d.pairs) {
      BATE_ASSERT_MSG(std::isfinite(pd.mbps) && pd.mbps >= 0.0,
                      "schedule: negative or non-finite bandwidth request");
    }
  }
  Model model;
  model.set_sense(Sense::kMinimize);

  // g-variable index per (demand, pair position, tunnel), flattened.
  struct PairVars {
    int first_var = -1;
    int tunnel_count = 0;
  };
  std::vector<std::vector<PairVars>> gvars(demands.size());
  if (layout) {
    layout->pairs.clear();
    layout->demands.assign(demands.size(), DemandBlocks{});
    layout->link_rows.assign(static_cast<std::size_t>(topo_->link_count()), -1);
  }

  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    if (layout) {
      DemandBlocks& b = layout->demands[i];
      b.g_first = model.variable_count();
      b.cover_first = model.constraint_count();
      b.cover_count = static_cast<int>(d.pairs.size());
    }
    gvars[i].resize(d.pairs.size());
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const PairDemand& pd = d.pairs[p];
      if (pd.pair < 0 || pd.pair >= catalog_->pair_count()) {
        throw std::out_of_range("schedule: demand references unknown pair");
      }
      const int tn = static_cast<int>(catalog_->tunnels(pd.pair).size());
      gvars[i][p].tunnel_count = tn;
      gvars[i][p].first_var = model.variable_count();
      // Tunnel availabilities were hoisted into tunnel_avail_ at
      // construction (they depend only on topology + tunnel, not on the
      // demand set).
      const auto& avail = tunnel_avail_[static_cast<std::size_t>(pd.pair)];
      for (int t = 0; t < tn; ++t) {
        // g = f / b, so the objective coefficient is b (minimize total f),
        // with a reliability tie-break preferring available tunnels,
        // weighted by the demand's availability target.
        model.add_variable(
            0.0, kInfinity,
            pd.mbps * (1.0 + cfg_.reliability_epsilon *
                                 (1.0 - avail[static_cast<std::size_t>(t)]) *
                                 (1.0 + availability_weight(
                                            d.availability_target))));
      }
      // (1): sum_t f >= b  <=>  sum_t g >= 1.
      std::vector<Term> row;
      for (int t = 0; t < tn; ++t) row.push_back({gvars[i][p].first_var + t, 1.0});
      model.add_constraint(std::move(row), Relation::kGreaterEqual, 1.0);
      if (layout) {
        layout->pairs.push_back(
            {gvars[i][p].first_var, gvars[i][p].tunnel_count});
      }
    }
    if (layout) {
      DemandBlocks& b = layout->demands[i];
      b.g_count = model.variable_count() - b.g_first;
    }
  }

  // Availability structure per demand: B variables over patterns.
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    if (layout) {
      DemandBlocks& b = layout->demands[i];
      b.b_first = model.variable_count();
      b.avail_first = model.constraint_count();
    }
    if (d.availability_target <= 0.0) continue;  // best-effort (Table 1 N/A)

    const auto dp = demand_patterns(d);
    const PatternDistribution* dist = &dp->dist;
    const auto& ranges = dp->ranges;

    std::vector<Term> avail_row;
    const auto patterns = static_cast<PatternMask>(dist->prob.size());
    for (PatternMask s = 1; s < patterns; ++s) {
      const double prob = dist->prob[s];
      if (prob <= 0.0) continue;
      // B^z_d in [0,1]: a scenario contributes at most its probability.
      const int bvar = model.add_variable(0.0, 1.0, 0.0);
      avail_row.push_back(
          {bvar, prob * availability_row_scale(d.availability_target)});
      // (3): B <= R_dk for every pair of the demand.
      for (std::size_t p = 0; p < d.pairs.size(); ++p) {
        std::vector<Term> row{{bvar, 1.0}};
        bool any = false;
        for (int t = ranges[p].first; t < ranges[p].second; ++t) {
          if ((s >> t) & 1u) {
            row.push_back(
                {gvars[i][p].first_var + (t - ranges[p].first), -1.0});
            any = true;
          }
        }
        if (!any) {
          // No tunnel of this pair is up in the pattern: B must be 0 here;
          // encode as B <= 0.
        }
        model.add_constraint(std::move(row), Relation::kLessEqual, 0.0);
      }
    }
    // (4): sum_S p_S B_S >= beta. The all-down pattern (s=0) contributes 0.
    model.add_constraint(
        std::move(avail_row), Relation::kGreaterEqual,
        d.availability_target * availability_row_scale(d.availability_target));
    if (layout) {
      DemandBlocks& b = layout->demands[i];
      b.b_count = model.variable_count() - b.b_first;
      b.avail_count = model.constraint_count() - b.avail_first;
    }
  }

  // (6): link capacity, rows normalized by capacity for conditioning.
  {
    std::vector<std::vector<Term>> rows(
        static_cast<std::size_t>(topo_->link_count()));
    for (std::size_t i = 0; i < demands.size(); ++i) {
      const Demand& d = demands[i];
      for (std::size_t p = 0; p < d.pairs.size(); ++p) {
        const auto& tunnels = catalog_->tunnels(d.pairs[p].pair);
        for (std::size_t t = 0; t < tunnels.size(); ++t) {
          for (LinkId e : tunnels[t].links) {
            rows[static_cast<std::size_t>(e)].push_back(
                {gvars[i][p].first_var + static_cast<int>(t), d.pairs[p].mbps});
          }
        }
      }
    }
    for (LinkId e = 0; e < topo_->link_count(); ++e) {
      auto& row = rows[static_cast<std::size_t>(e)];
      if (row.empty()) continue;
      double cap = topo_->link(e).capacity;
      if (!capacity_override.empty()) {
        cap = capacity_override[static_cast<std::size_t>(e)];
      }
      for (Term& term : row) term.coef /= std::max(cap, 1e-9);
      if (layout) {
        layout->link_rows[static_cast<std::size_t>(e)] =
            model.constraint_count();
      }
      model.add_constraint(std::move(row), Relation::kLessEqual,
                           cap <= 0.0 ? 0.0 : 1.0);
    }
  }
  return model;
}

ScheduleResult TrafficScheduler::schedule(
    std::span<const Demand> demands, std::span<const double> capacity_override,
    ScheduleBasisCache* basis) const {
  BATE_TRACE_SPAN("scheduler.schedule");
  const std::int64_t round_t0 = obs::now_us();
  ScheduleLayout layout;
  std::vector<DemandIdentity> identity;
  // The basis map runs inside the build span: it is part of making this
  // round's model, and the hard-repair share is timed as what is left.
  const Model model = [&] {
    BATE_TRACE_SPAN("scheduler.build_model");
    Model built = build_schedule_model(demands, capacity_override, &layout);
    if (basis != nullptr) identity = basis->map_onto(demands, layout, built);
    return built;
  }();
  const Solution sol =
      solve_lp(model, cfg_.lp, basis != nullptr ? &basis->lp : nullptr);
  // Scenario count: every variable that is not a tunnel-rate g is a
  // per-(demand, pattern) credit B — the number of availability scenarios
  // the LP priced this round.
  long tunnel_vars = 0;
  for (const auto& [first_var, tunnel_count] : layout.pairs) {
    tunnel_vars += tunnel_count;
  }
  record_schedule_round(model, static_cast<long>(demands.size()),
                        model.variable_count() - tunnel_vars,
                        basis != nullptr ? &basis->lp : nullptr,
                        obs::now_us() - round_t0);

  ScheduleResult result;
  result.status = sol.status;
  result.feasible = sol.optimal();
  if (!result.feasible) {
    if (basis != nullptr) basis->repairs.clear();  // nothing repaired
    return result;
  }

  result.alloc.resize(demands.size());
  std::size_t flat = 0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    result.alloc[i].resize(d.pairs.size());
    for (std::size_t p = 0; p < d.pairs.size(); ++p, ++flat) {
      const auto [first_var, tunnel_count] = layout.pairs[flat];
      auto& out = result.alloc[i][p];
      out.resize(static_cast<std::size_t>(tunnel_count));
      double pair_total = 0.0;
      for (int t = 0; t < tunnel_count; ++t) {
        const double g = sol.x[static_cast<std::size_t>(first_var + t)];
        out[static_cast<std::size_t>(t)] = std::max(0.0, g * d.pairs[p].mbps);
        pair_total += out[static_cast<std::size_t>(t)];
      }
      // LP row (1) (sum_t g >= 1) guarantees the request is covered in the
      // no-failure pattern. Totals above b_d are legitimate redundancy — the
      // per-scenario credit B^z_d is capped at b_d separately through the
      // B-variable bounds in rows (3)/(4).
      BATE_DCHECK_MSG(
          pair_total >= d.pairs[p].mbps * (1.0 - 1e-6) - 1e-6,
          "schedule: optimal allocation under-covers the request");
    }
  }

  if (cfg_.hard_repair) {
    repair_hard_availability(demands, result, capacity_override, basis,
                             identity);
  }

  for (const Allocation& a : result.alloc) {
    for (const auto& per_pair : a) {
      for (double f : per_pair) {
        // Postcondition of (1),(5): rates are finite and nonnegative; a
        // violation means the tableau drifted, not a tight instance.
        BATE_DCHECK_MSG(std::isfinite(f) && f >= 0.0,
                        "schedule: corrupt allocation rate");
        result.total_allocated_mbps += f;
      }
    }
  }
  return result;
}

namespace {

/// The mass of `dp`'s patterns whose up tunnels carry every pair of the
/// demand to within `tolerance` Mbps of its request.
double hard_availability(const DemandPatterns& dp, const Demand& demand,
                         const Allocation& alloc, double tolerance) {
  double avail = 0.0;
  const auto patterns = static_cast<PatternMask>(dp.dist.prob.size());
  for (PatternMask s = 0; s < patterns; ++s) {
    if (dp.dist.prob[s] <= 0.0) continue;
    bool ok = true;
    for (std::size_t p = 0; p < demand.pairs.size() && ok; ++p) {
      double carried = 0.0;
      for (int t = dp.ranges[p].first; t < dp.ranges[p].second; ++t) {
        if ((s >> t) & 1u) {
          carried += alloc[p][static_cast<std::size_t>(t - dp.ranges[p].first)];
        }
      }
      ok = carried + tolerance >= demand.pairs[p].mbps;
    }
    if (ok) avail += dp.dist.prob[s];
  }
  return avail;
}

}  // namespace

double TrafficScheduler::pattern_hard_availability(
    const DemandPatterns& dp, const Demand& demand,
    const Allocation& alloc) {
  BATE_ASSERT_MSG(alloc.size() == demand.pairs.size(),
                  "schedule: allocation shape does not match demand");
  return hard_availability(dp, demand, alloc, 1e-6);
}

void TrafficScheduler::repair_hard_availability(
    std::span<const Demand> demands, ScheduleResult& result,
    std::span<const double> capacity_override, ScheduleBasisCache* cache,
    std::span<const DemandIdentity> identity) const {
  // This round's repairs, which replace the cache's: a demand not repaired
  // this round drops out.
  std::unordered_map<DemandId, RepairMemo> memo;
  // Residual capacity under the whole LP allocation.
  auto usage = link_usage(*topo_, *catalog_, demands, result.alloc);
  auto cap_of = [&](LinkId e) {
    return capacity_override.empty()
               ? topo_->link(e).capacity
               : capacity_override[static_cast<std::size_t>(e)];
  };

  auto apply_usage = [&](const Demand& d, const Allocation& a, double sign) {
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog_->tunnels(d.pairs[p].pair);
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        if (a[p][t] == 0.0) continue;
        for (LinkId e : tunnels[t].links) {
          usage[static_cast<std::size_t>(e)] += sign * a[p][t];
        }
      }
    }
  };

  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    if (d.availability_target <= 0.0) continue;
    const auto dp = demand_patterns(d);
    if (pattern_hard_availability(*dp, d, result.alloc[i]) + 1e-9 >=
        d.availability_target) {
      continue;
    }

    // Capability screen: the precomputed per-(pair, pattern) scenario LPs
    // upper-bound the hard availability ANY allocation can reach (pattern S
    // counts only if every pair could be made whole with the full network
    // to itself). Below the target, the repair MILP is provably infeasible
    // — skip the solve, keeping the LP allocation exactly as the infeasible
    // MILP would have.
    {
      double best_possible = 0.0;
      const auto patterns = static_cast<PatternMask>(dp->dist.prob.size());
      for (PatternMask s = 1; s < patterns; ++s) {
        if (dp->dist.prob[s] <= 0.0) continue;
        bool can = true;
        for (std::size_t p = 0; p < d.pairs.size() && can; ++p) {
          const auto& cap =
              capability_[static_cast<std::size_t>(d.pairs[p].pair)];
          const int tn = dp->ranges[p].second - dp->ranges[p].first;
          const PatternMask local =
              (s >> dp->ranges[p].first) &
              ((PatternMask{1} << tn) - 1u);
          if (local >= cap.size()) continue;  // pattern space mismatch
          const double f = cap[local];
          // -1 = not computed (zero-probability under the pair's own
          // distribution): no conclusion from this pair.
          if (f >= 0.0 && f + 1e-6 < d.pairs[p].mbps) can = false;
        }
        if (can) best_possible += dp->dist.prob[s];
      }
      if (best_possible + 1e-9 < d.availability_target) continue;
    }

    // Residual excluding this demand's own allocation, per (pair, link of
    // the pair's tunnels) in the order the MILP's capacity rows take it.
    apply_usage(d, result.alloc[i], -1.0);
    std::vector<double> residual;
    for (const PairDemand& pd : d.pairs) {
      for (LinkId e : tunnel_link_union(catalog_->tunnels(pd.pair))) {
        residual.push_back(
            std::max(0.0, cap_of(e) - usage[static_cast<std::size_t>(e)]));
      }
    }
    // The MILP reads only the demand and `residual`, and the pass keeps
    // the LP allocation when the MILP fails, so equal bits in all three
    // give last round's result exactly.
    const bool remember =
        cache != nullptr && identity[i] != DemandIdentity::kRepeated;
    if (remember && identity[i] == DemandIdentity::kKept) {
      const auto it = cache->repairs.find(d.id);
      if (it != cache->repairs.end() &&
          same_bits(it->second.lp, result.alloc[i]) &&
          same_bits(it->second.residual, residual)) {
        if (obs::enabled()) {
          static obs::Counter& reused = obs::Registry::global().counter(
              "bate_scheduler_repairs_reused_total");
          reused.inc();
        }
        RepairMemo& entry = memo[d.id];
        entry = std::move(it->second);
        result.alloc[i] = entry.repaired;
        apply_usage(d, result.alloc[i], 1.0);
        continue;
      }
    }
    RepairMemo* entry = nullptr;
    if (remember) {
      entry = &memo[d.id];
      entry->lp = result.alloc[i];
    }

    // Tiny per-demand hard MILP: q_S binary per pattern.
    Model model;
    model.set_sense(Sense::kMinimize);
    std::vector<std::pair<int, int>> gv(d.pairs.size());  // first var, count
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog_->tunnels(d.pairs[p].pair);
      const auto& avail =
          tunnel_avail_[static_cast<std::size_t>(d.pairs[p].pair)];
      gv[p] = {model.variable_count(), static_cast<int>(tunnels.size())};
      std::vector<Term> full;
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        const int v = model.add_variable(
            0.0, kInfinity,
            d.pairs[p].mbps *
                (1.0 + cfg_.reliability_epsilon * (1.0 - avail[t]) *
                           (1.0 +
                            availability_weight(d.availability_target))));
        full.push_back({v, 1.0});
      }
      model.add_constraint(std::move(full), Relation::kGreaterEqual, 1.0);
    }
    const auto patterns = static_cast<PatternMask>(dp->dist.prob.size());
    std::vector<Term> avail_row;
    for (PatternMask s = 1; s < patterns; ++s) {
      if (dp->dist.prob[s] <= 0.0) continue;
      const int q = model.add_binary(0.0);
      avail_row.push_back(
          {q, dp->dist.prob[s] *
                  availability_row_scale(d.availability_target)});
      for (std::size_t p = 0; p < d.pairs.size(); ++p) {
        std::vector<Term> row{{q, -1.0}};
        for (int t = dp->ranges[p].first; t < dp->ranges[p].second; ++t) {
          if ((s >> t) & 1u) {
            row.push_back({gv[p].first + (t - dp->ranges[p].first), 1.0});
          }
        }
        model.add_constraint(std::move(row), Relation::kGreaterEqual, 0.0);
      }
    }
    model.add_constraint(
        std::move(avail_row), Relation::kGreaterEqual,
        d.availability_target * availability_row_scale(d.availability_target));
    // Residual capacity over the links this demand's tunnels touch.
    std::size_t next_resid = 0;
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog_->tunnels(d.pairs[p].pair);
      for (LinkId e : tunnel_link_union(tunnels)) {
        std::vector<Term> row;
        for (std::size_t t = 0; t < tunnels.size(); ++t) {
          if (tunnels[t].uses(e)) {
            row.push_back({gv[p].first + static_cast<int>(t), d.pairs[p].mbps});
          }
        }
        model.add_constraint(std::move(row), Relation::kLessEqual,
                             residual[next_resid++]);
      }
    }

    BranchBoundOptions bnb;
    bnb.node_limit = 4000;
    // cold-start: each demand builds a differently-shaped MILP (its own
    // pattern set), so no basis survives between loop iterations. Nodes
    // inside the solve still warm-start from their parents.
    const Solution fix = solve_milp(model, bnb);
    if (fix.status == SolveStatus::kOptimal) {
      Allocation repaired(d.pairs.size());
      for (std::size_t p = 0; p < d.pairs.size(); ++p) {
        repaired[p].assign(static_cast<std::size_t>(gv[p].second), 0.0);
        for (int t = 0; t < gv[p].second; ++t) {
          repaired[p][static_cast<std::size_t>(t)] =
              std::max(0.0, fix.x[static_cast<std::size_t>(gv[p].first + t)]) *
              d.pairs[p].mbps;
        }
      }
      result.alloc[i] = std::move(repaired);
    }
    if (entry != nullptr) {
      entry->residual = std::move(residual);
      entry->repaired = result.alloc[i];
    }
    apply_usage(d, result.alloc[i], 1.0);
  }
  if (cache != nullptr) cache->repairs = std::move(memo);
}

double achieved_availability(const Topology& topo,
                             const TunnelCatalog& catalog,
                             const Demand& demand, const Allocation& alloc) {
  if (alloc.size() != demand.pairs.size()) {
    throw std::invalid_argument("achieved_availability: allocation shape");
  }
  DemandPatterns dp;
  dp.dist = exact_patterns(topo, joint_tunnels(catalog, demand, dp.ranges));
  return hard_availability(dp, demand, alloc, 1e-9);
}

std::vector<double> link_usage(const Topology& topo,
                               const TunnelCatalog& catalog,
                               std::span<const Demand> demands,
                               std::span<const Allocation> allocs) {
  std::vector<double> usage(static_cast<std::size_t>(topo.link_count()), 0.0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    for (std::size_t p = 0; p < d.pairs.size(); ++p) {
      const auto& tunnels = catalog.tunnels(d.pairs[p].pair);
      for (std::size_t t = 0; t < tunnels.size(); ++t) {
        const double f = allocs[i][p][t];
        if (f <= 0.0) continue;
        for (LinkId e : tunnels[t].links) {
          usage[static_cast<std::size_t>(e)] += f;
        }
      }
    }
  }
  return usage;
}

}  // namespace bate
