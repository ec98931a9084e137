// BATE traffic scheduling (Sec 3.3).
//
// Periodically re-allocates tunnel bandwidth f^t_d for all admitted demands,
// minimizing total allocated bandwidth subject to:
//   (1) full bandwidth on every pair:      sum_t f^t_d >= b^k_d
//   (3) per-scenario effective ratio:      B^z_d <= R^z_dk
//   (4) availability:                      sum_z B^z_d p_z >= beta_d
//   (5,6) nonnegativity and link capacity.
//
// Scenario explosion is handled exactly as the paper prescribes — scenarios
// with more than y concurrent failures are pruned and aggregated into one
// unqualified scenario — but the LP is built over tunnel-pattern projections
// (scenario/pattern.h) instead of raw scenarios, an exact transformation
// that keeps the row count independent of |E| (DESIGN.md Sec 5). B^z_d is
// capped at 1 so a scenario can contribute at most its own probability.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "routing/tunnels.h"
#include "scenario/pattern.h"
#include "solver/simplex.h"
#include "topology/graph.h"
#include "util/mutex.h"
#include "workload/demand.h"

namespace bate {

/// Row scaling for availability constraints sum_S p_S q_S >= beta: near
/// beta -> 1 the slack is O(1-beta), far below solver tolerances, so the
/// row is scaled by 1/max(1-beta, 1e-4) (capped at 1e4 to preserve
/// conditioning).
inline double availability_row_scale(double beta) {
  const double slack = 1.0 - beta;
  return 1.0 / (slack < 1e-4 ? 1e-4 : (slack > 1.0 ? 1.0 : slack));
}

struct SchedulerConfig {
  /// The paper's y: maximum concurrent link failures considered (1..4). At
  /// the topology's link count nothing is pruned: the "optimal, no
  /// pruning" reference of Fig 16.
  int max_failures = 2;
  /// Reliability tie-break: tunnel cost is b * (1 + eps * (1 - p_t)), so
  /// among equal-bandwidth optima the LP prefers reliable tunnels (this is
  /// what makes the LP relaxation land on hard-feasible vertices, e.g. the
  /// Fig 2d allocation).
  double reliability_epsilon = 0.01;
  /// After the LP, demands whose HARD availability (full bandwidth with
  /// probability >= beta) is still unmet are repaired with a tiny
  /// per-demand MILP against residual capacity. The LP availability
  /// constraint (4) is a relaxation of the hard guarantee; this pass closes
  /// the gap where capacity allows (DESIGN.md Sec 5).
  bool hard_repair = true;
  SimplexOptions lp;
};

/// Pattern distribution of one demand plus, per pair position, the
/// [begin, end) range of that pair's tunnels in the joint bitmask.
struct DemandPatterns {
  PatternDistribution dist;
  std::vector<std::pair<int, int>> ranges;
};

/// Where one demand's columns and rows sit in a schedule model. The model
/// lays every demand's g columns and cover rows (1) out first, then every
/// demand's B columns with its rows (3) and (4), then one capacity row (6)
/// per used link. A demand's block sizes depend only on the demand itself,
/// so while it stays admitted unchanged one offset per block maps it from
/// one round's model to the next.
struct DemandBlocks {
  int g_first = 0;  // g columns, pair-major then tunnel
  int g_count = 0;
  int cover_first = 0;  // one row (1) per pair
  int cover_count = 0;
  int b_first = 0;  // one B column per positive-probability pattern
  int b_count = 0;
  int avail_first = 0;  // rows (3) per (pattern, pair), then row (4)
  int avail_count = 0;
};

/// The layout build_schedule_model() reports beside the model.
struct ScheduleLayout {
  /// (first g column, tunnel count) per (demand, pair), flattened pair-major
  /// in demand order.
  std::vector<std::pair<int, int>> pairs;
  /// Index-aligned with the demand set.
  std::vector<DemandBlocks> demands;
  /// Capacity row per LinkId; -1 for a link no tunnel of the set uses.
  std::vector<int> link_rows;
};

/// How a demand of this round relates to the previous round's set.
enum class DemandIdentity : unsigned char {
  kRepeated,  // its id appears more than once in this round's set
  kNew,       // unique id, but absent, repeated or different last round
  kKept,      // unique id both rounds and the same Demand: its blocks map
};

/// One demand's last hard-repair pass: the inputs its repair MILP saw and
/// the allocation the pass produced.
struct RepairMemo {
  Allocation lp;                  // the LP allocation the pass started from
  std::vector<double> residual;   // per (pair, link of its tunnels), in order
  Allocation repaired;
};

/// Caller-owned state chained across schedule() calls over a changing
/// admitted set (AdmissionController keeps one). Each round restarts the LP
/// from the previous round's final basis, translated onto the new model by
/// demand identity: admits add blocks, withdraws drop them, and every other
/// demand's columns and rows, and every capacity row, keep their basis
/// status. A demand's hard-repair result is reused when its repair inputs
/// are bit-identical to its previous round's, so reuse changes no bit. The
/// LP can land on another optimal vertex when it has ties, so what matches
/// a cold solve is the objective (DESIGN.md Sec 5.1). Not thread-safe: one
/// cache per call chain (schedule() itself stays const and thread-safe
/// when called without a cache).
struct ScheduleBasisCache {
  /// The last round's final basis, in and out of solve_lp.
  WarmStart lp;
  /// The demand set lp.basis was built for and where its blocks sat.
  std::vector<Demand> demands;
  std::vector<DemandBlocks> blocks;
  std::vector<int> link_rows;
  /// The last round's repair passes, by demand id; repeated ids are left
  /// out.
  std::unordered_map<DemandId, RepairMemo> repairs;

  /// Translates lp.basis onto `model`, the model of `next` laid out as
  /// `layout`, then makes `next` the cache's identity. Every basic column
  /// whose demand was kept (or a capacity row's slack whose link still has
  /// a row) lands at the new index of the row position it held; a row that
  /// lost its basic column takes a surviving basic column whose row
  /// departed, failing that an unused slack; new rows start on their own
  /// slack, new columns nonbasic at their lower bound. When no structural
  /// column maps, lp.basis is left empty and the solve runs cold. Returns
  /// each demand's identity, index-aligned with `next`.
  std::vector<DemandIdentity> map_onto(std::span<const Demand> next,
                                       const ScheduleLayout& layout,
                                       const Model& model);
};

struct ScheduleResult {
  bool feasible = false;
  /// alloc[i] is the Allocation of demands[i] (pair-major, tunnel-minor).
  std::vector<Allocation> alloc;
  /// Objective: total allocated Mbps across demands/tunnels.
  double total_allocated_mbps = 0.0;
  SolveStatus status = SolveStatus::kInfeasible;
};

class TrafficScheduler {
 public:
  /// References are retained; topo and catalog must outlive the scheduler.
  TrafficScheduler(const Topology& topo, const TunnelCatalog& catalog,
                   SchedulerConfig cfg = {});

  /// Solves the scheduling LP for the given demand set against the full
  /// link capacities (or `capacity_override` when non-empty; indexed by
  /// LinkId). `basis`, when non-null, restarts the LP from the previous
  /// call's basis, reuses unchanged repairs, and receives this call's basis
  /// and repairs back (see ScheduleBasisCache).
  ScheduleResult schedule(std::span<const Demand> demands,
                          std::span<const double> capacity_override = {},
                          ScheduleBasisCache* basis = nullptr) const;

  /// Pattern distribution used by the LP for a single pair.
  const PatternDistribution& lp_patterns(int pair) const;
  /// Per-pattern deliverable capability of a pair: entry S is the maximum
  /// Mbps the up tunnels of pattern S can carry against the full link
  /// capacities (the per-(pair, pattern) scenario LP, precomputed at
  /// construction), or -1 when the pattern has zero probability under the
  /// LP's distribution and was not solved. F(S) upper
  /// bounds the bandwidth ANY feasible allocation gives the pair in S —
  /// capacity shared with other demands only shrinks it — so the hard-repair
  /// pass uses it to skip provably infeasible repair MILPs.
  const std::vector<double>& pattern_capability(int pair) const;
  /// Pattern distribution of a whole demand under the LP model. Single-pair
  /// demands resolve to the precomputed per-pair distribution; multi-pair
  /// demands build the joint distribution once and cache it keyed by the
  /// demand's pair list (schedule() and the hard-repair pass previously
  /// rebuilt it per demand per call). Thread-safe.
  std::shared_ptr<const DemandPatterns> demand_patterns(
      const Demand& demand) const;

  /// Builds the scheduling LP (rows 1, 3, 4, 6) for the demand set without
  /// solving it. This is exactly the model schedule() solves; exposed so the
  /// solver microbench (bench/bench_solver.cpp) can time solve_lp on real
  /// instances. `layout`, when non-null, receives where each demand's
  /// blocks and each capacity row sit.
  Model build_schedule_model(std::span<const Demand> demands,
                             std::span<const double> capacity_override = {},
                             ScheduleLayout* layout = nullptr) const;

  const Topology& topology() const { return *topo_; }
  const TunnelCatalog& catalog() const { return *catalog_; }
  const SchedulerConfig& config() const { return cfg_; }

  /// Hard availability of an allocation under a demand's pattern
  /// distribution: the mass of patterns where every pair is made whole.
  static double pattern_hard_availability(const DemandPatterns& dp,
                                          const Demand& demand,
                                          const Allocation& alloc);

 private:
  /// `cache`, when non-null, supplies last round's repairs for kKept
  /// demands and receives this round's.
  void repair_hard_availability(std::span<const Demand> demands,
                                ScheduleResult& result,
                                std::span<const double> capacity_override,
                                ScheduleBasisCache* cache,
                                std::span<const DemandIdentity> identity) const;
  const Topology* topo_;
  const TunnelCatalog* catalog_;
  SchedulerConfig cfg_;
  std::vector<PatternDistribution> lp_patterns_;
  /// tunnel_avail_[pair][t] = catalog tunnel availability, hoisted out of
  /// the per-LP-variable loops in schedule() and the repair MILP.
  std::vector<std::vector<double>> tunnel_avail_;
  /// capability_[pair][S]: see pattern_capability().
  std::vector<std::vector<double>> capability_;
  /// Per-pair DemandPatterns for single-pair demands, built once in the
  /// constructor.
  std::vector<std::shared_ptr<const DemandPatterns>> single_patterns_;
  /// Joint distributions for multi-pair demands, built on first use.
  mutable Mutex joint_mu_{LockRank::kScheduler, "scheduler joint cache"};
  mutable std::map<std::vector<int>, std::shared_ptr<const DemandPatterns>>
      joint_cache_ BATE_GUARDED_BY(joint_mu_);
};

/// Availability an allocation achieves under the exact (unpruned) failure
/// model: the probability that every pair of the demand receives its full
/// bandwidth, from the joint pattern distribution of all its pairs'
/// tunnels. This is the hard satisfaction measure of the evaluation, the
/// fixed admission step and the tests.
double achieved_availability(const Topology& topo,
                             const TunnelCatalog& catalog,
                             const Demand& demand, const Allocation& alloc);

/// Total bandwidth an allocation places on each link (indexed by LinkId).
std::vector<double> link_usage(const Topology& topo,
                               const TunnelCatalog& catalog,
                               std::span<const Demand> demands,
                               std::span<const Allocation> allocs);

}  // namespace bate
