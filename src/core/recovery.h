// BATE failure recovery (Sec 3.4, Appendices C & D).
//
// When a failure scenario z occurs, traffic is redistributed over surviving
// tunnels to maximize retained profit sum_d r_d, where r_d = g_d when every
// pair of d still receives full bandwidth and (1 - mu_d) g_d otherwise.
// The exact problem is a MILP (NP-hard by reduction from all-or-nothing
// multicommodity flow); recover_optimal solves it by branch & bound and
// recover_greedy implements the 2-approximation of Algorithm 2.
// BackupPlanner::enforce is the one rule that decides what brokers enforce
// for any set of down links: the live loop runs Algorithm 2 when a link
// fails. BackupPlanner::precompute builds the paper's proactive table, one
// plan per single-link failure (Fig 4).
#pragma once

#include <map>
#include <span>
#include <vector>

#include "routing/tunnels.h"
#include "solver/branch_bound.h"
#include "topology/graph.h"
#include "workload/demand.h"

namespace bate {

struct RecoveryResult {
  /// Post-recovery allocation per demand (same shape as scheduling output);
  /// tunnels crossing failed links always carry 0.
  std::vector<Allocation> alloc;
  /// full_profit[i] != 0 iff demand i keeps full profit (all pairs whole).
  std::vector<char> full_profit;
  /// Total retained profit sum_d r_d.
  double profit = 0.0;
  bool solved = false;
};

/// Optimal recovery: the profit-maximization MILP (12).
RecoveryResult recover_optimal(const Topology& topo,
                               const TunnelCatalog& catalog,
                               std::span<const Demand> demands,
                               std::span<const LinkId> failed_links,
                               const BranchBoundOptions& options = {});

/// The profit-maximization MILP (12) itself, without solving it. Exposed for
/// the solver microbench (bench/bench_solver.cpp), which times solve_lp on
/// its LP relaxation.
Model build_recovery_model(const Topology& topo, const TunnelCatalog& catalog,
                           std::span<const Demand> demands,
                           std::span<const LinkId> failed_links);

/// Algorithm 2: greedy 2-approximation. Demands are served whole in
/// descending profit density g_d / sum_k b^k_d; a single large demand can
/// evict the accumulated set when its charge exceeds theirs.
RecoveryResult recover_greedy(const Topology& topo,
                              const TunnelCatalog& catalog,
                              std::span<const Demand> demands,
                              std::span<const LinkId> failed_links);

/// Backup allocations for failure scenarios (Sec 3.4) and the rule that
/// picks what brokers enforce. enforce() runs Algorithm 2 (recover_greedy)
/// over exactly the down set, which covers concurrent failures as the paper
/// notes the scheme "can be easily extended to" (fn. 6). precompute() is the
/// paper's proactive table ("BATE proactively computes backup allocation
/// strategies"), one Algorithm 2 plan per loaded link: the Fig 4 bench, the
/// failure-recovery demo and tools/bate_plan print it. The live loop does
/// not precompute, since the plan for link e is what enforce() returns for
/// the down set {e} over the same demands.
class BackupPlanner {
 public:
  BackupPlanner(const Topology& topo, const TunnelCatalog& catalog)
      : topo_(&topo), catalog_(&catalog) {}

  /// Computes one backup plan per link that `current` loads.
  void precompute(std::span<const Demand> demands,
                  std::span<const Allocation> current);

  /// The plan for a single failed link; nullptr when none was pre-computed.
  const RecoveryResult* plan(LinkId link) const;
  std::size_t plan_count() const { return plans_.size(); }
  /// The demand set the plans were computed for (index-aligned with each
  /// plan's allocations).
  const std::vector<Demand>& demands() const { return demands_; }

  /// What brokers enforce for `demands`, scheduled as `primaries`, while
  /// the links `down` are failed; index-aligned with `demands`:
  ///  * `primaries` itself while no down link carries their traffic
  ///    (returned without a scan when `down` is empty);
  ///  * else Algorithm 2 over exactly `down`, whose rates on tunnels
  ///    crossing a down link are all 0.
  /// The table views `primaries` or this planner: it is valid while
  /// `primaries` lives and until the next enforce().
  std::span<const Allocation> enforce(std::span<const Demand> demands,
                                      std::span<const Allocation> primaries,
                                      std::span<const LinkId> down);

 private:
  const Topology* topo_;
  const TunnelCatalog* catalog_;
  std::vector<Demand> demands_;
  std::map<LinkId, RecoveryResult> plans_;
  /// enforce()'s Algorithm 2 table.
  RecoveryResult computed_;
};

}  // namespace bate
