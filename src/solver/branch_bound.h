// Branch & bound for the 0-1 MILPs of the paper: optimal admission control
// (Appendix A) and optimal failure recovery (Sec 3.4). LP relaxations are
// solved with the simplex of simplex.h; node selection is best-bound.
//
// Before the tree search starts, a root preparation pass (DESIGN.md Sec 5.3)
// tightens the relaxation with Gomory mixed-integer and knapsack cover cuts
// (solver/cuts.h) in a bounded cut-and-resolve loop — each round's accepted
// rows are appended to the search model, so every child inherits them — and
// initializes pseudo-costs by strong-branching the most fractional root
// candidates. Branching is then pseudo-cost driven (product score of the
// estimated per-unit bound degradations, refined along each node's ancestor
// chain from observed child bounds); most-fractional remains the fallback
// when the root relaxation did not solve to optimality. The whole pass is
// skipped in `lp.reference_mode`, which stays the plain-relaxation oracle.
//
// Each open node holds one bound delta against its parent (the full bound
// set of a node is its chain to the root) and a shared handle on the
// parent's final simplex basis, so child relaxations warm-start and skip
// Phase 1 on almost every node. The search is serial and deterministic:
// equal-bound nodes pop in a position-derived key order (DESIGN.md "Solver
// performance").
#pragma once

#include "solver/model.h"
#include "solver/simplex.h"

namespace bate {

/// The tuning constants (tolerances, cut-loop limits, strong-branching
/// width) live in branch_bound.cpp; these are the knobs callers set.
struct BranchBoundOptions {
  int node_limit = 200000;
  /// Wall-clock budget; <= 0 means unlimited. When exhausted the incumbent
  /// (if any) is returned with status kIterationLimit.
  double time_limit_seconds = 0.0;
  /// Stop as soon as any integer-feasible solution is found (for
  /// feasibility-style MILPs where optimality is irrelevant).
  bool stop_at_first_incumbent = false;
  /// `lp.reference_mode` runs the plain-relaxation oracle: no root cuts or
  /// strong branching, most-fractional branching, reference simplex.
  SimplexOptions lp;
};

/// Search counters, for tests and benches.
struct BranchBoundStats {
  long nodes_created = 0;   // root + every child pushed
  long nodes_solved = 0;    // relaxations actually solved
  /// Bound deltas allocated across the run — exactly one per non-root node.
  /// tests/branch_bound pins bound_deltas_allocated == nodes_created - 1 so
  /// nodes can never silently grow back to full bound-vector copies.
  long bound_deltas_allocated = 0;
  long warm_started_nodes = 0;  // relaxations that accepted a warm basis
  int max_depth = 0;
  /// Observability counters (obs registry: bate_bnb_*): popped nodes
  /// discarded by the incumbent bound, accepted incumbent improvements,
  /// and the deepest open-queue depth seen during the search.
  long nodes_pruned = 0;
  long incumbent_updates = 0;
  long open_peak = 0;
  /// Root preparation counters: accepted cut rows by family, separation
  /// rounds that added at least one row, and LP solves spent probing strong
  /// branching candidates.
  long gomory_cuts = 0;
  long cover_cuts = 0;
  long cut_rounds = 0;
  long strong_branch_solves = 0;
  /// Nodes whose branching variable was chosen by pseudo-cost score (the
  /// remainder used the most-fractional fallback).
  long pseudo_cost_branches = 0;
  /// Bound accounting: `proven` is true when the search closed the tree
  /// (every node explored or pruned — the verdict is exact, not budget
  /// limited). `best_bound` is the strongest proven bound on the optimum in
  /// the model's own sense; `mip_gap` is the relative incumbent/bound gap
  /// (0 when proven, 1 when no incumbent was found).
  bool proven = false;
  double best_bound = 0.0;
  double mip_gap = 1.0;
};

/// Solves the MILP. Returns kIterationLimit when the node budget is
/// exhausted before proving optimality (the incumbent, if any, is returned
/// in that case with its objective).
///
/// `root_warm` (optional) warm-starts the root relaxation — e.g. from a
/// previous solve of the same model's relaxation — and receives the root's
/// final basis back. `stats`, when non-null, receives search counters.
Solution solve_milp(const Model& model, const BranchBoundOptions& options = {},
                    WarmStart* root_warm = nullptr,
                    BranchBoundStats* stats = nullptr);

}  // namespace bate
