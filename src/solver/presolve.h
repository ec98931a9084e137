// LP / MILP presolve and postsolve.
//
// Shrinks a Model before it reaches the simplex (simplex.h) or branch &
// bound (branch_bound.h). The reductions are the classical, dual-safe set:
//
//  * fixed variables (lower == upper) are substituted into the rows;
//  * empty rows are checked and dropped; singleton rows fold into variable
//    bounds (equality singletons fix the variable outright);
//  * bounds are tightened by constraint propagation, and rows made
//    redundant by the (tightened) bounds are dropped;
//  * rows whose activity is bounded by a scalar multiple of another row
//    plus bound terms are dropped (dominated rows);
//  * variables whose objective and column signs all push toward one finite
//    bound are fixed there (dual fixing; also removes empty columns);
//  * zero-cost columns with a free upper bound appearing in a single
//    inequality row absorb that row (the column acts as a free surplus).
//
// The reduced model keeps the original coefficients unscaled: the
// scheduling LPs solve in ~10% fewer iterations unscaled than under
// geometric-mean scaling (EXPERIMENTS.md).
//
// Every reduction appends an entry to a Postsolve record that maps the
// reduced solution back to a FULL primal x and a FULL dual vector for the
// original model: dropped rows get dual 0 (they are implied by what
// remains), folded singleton rows and propagation-tightened bounds transfer
// the variable's reduced cost onto the generating row when the solution
// ends up pinned at the implied bound, and fixed variables are sign-safe by
// the dual-fixing argument (DESIGN.md Sec 5 "Presolve & postsolve"). The
// recovered duals satisfy the shadow-price invariant of tests/solver_test.cpp
// and the strong-duality check of tests/simplex_equivalence_test.cpp.
//
// Infeasibility is only declared when a violation exceeds the simplex's own
// Phase-1 threshold (1e-6, scaled by the rhs), so a presolved solve never
// disagrees with the un-presolved verdict on borderline instances.
#pragma once

#include <vector>

#include "solver/model.h"
#include "solver/simplex.h"

namespace bate {

struct PresolveOptions {
  /// MILP mode: round tightened integer bounds inward, declare integer
  /// variables fixed at fractional values infeasible, lift lower bounds
  /// during propagation (branch & bound prunes by bound boxes), and skip
  /// reductions that are only valid for continuous relaxations. No dual
  /// recovery is performed (branch & bound returns no duals). LP mode
  /// tightens upper bounds only: the simplex cold start sits at x = lower,
  /// and lifted lower bounds moved that start point for ~10% extra
  /// iterations on the scheduling LPs while enabling no further reductions.
  bool for_milp = false;
};

struct PresolveStats {
  int rows_removed = 0;
  int cols_removed = 0;
  int bounds_tightened = 0;
  int passes = 0;
  /// Per-rule reduction counts (sub-breakdown of the totals above; exposed
  /// through the obs registry as bate_presolve_<rule>_total). redundant_rows
  /// covers empty rows and rows implied by activity bounds; singleton_rows
  /// counts rows folded into a variable bound or fixing their variable;
  /// tightens counts constraint-propagation bound hits only (singleton
  /// folds count toward bounds_tightened but not here).
  int redundant_rows = 0;
  int singleton_rows = 0;
  int dominated_rows = 0;
  int fixed_vars = 0;
  int dual_fixed_vars = 0;
  int free_slack_cols = 0;
  int tightens = 0;
};

/// The record that maps a reduced-model solution back to the original
/// model. Built by presolve_model; consumed by solve_lp / solve_milp.
class Postsolve {
 public:
  /// True when presolve found nothing to do (no reductions): the caller
  /// should solve the original model directly.
  bool trivial() const { return actions_.empty(); }

  /// Maps a solution of the reduced model to a solution of `original`
  /// (which must be the exact model that was presolved): full primal x,
  /// full duals (when the reduced solution carries duals and the presolve
  /// was not for_milp), objective including the fixed-variable offset.
  /// Status and work counters pass through.
  Solution expand(const Model& original, const Solution& reduced) const;

  /// Translates a reduced-model basis to a full-model basis: kept columns
  /// and rows copy their status, removed rows become slack-basic (block
  /// triangular with the kept basis, hence always nonsingular), removed
  /// variables sit at their recorded bound. `reduced_x` (the reduced primal
  /// solution) synthesizes statuses when `reduced` is empty (a reduced
  /// model with no rows solves without a basis).
  Basis to_full(const Basis& reduced, const std::vector<double>& reduced_x) const;

  /// Translates a full-model basis to the reduced space: statuses of kept
  /// columns/rows are copied; reduced rows whose full basic column was
  /// presolved away fall back to their own slack. The result may be
  /// rejected by the warm-start install (duplicate basic column) — that is
  /// the normal stale-basis cold fallback.
  Basis to_reduced(const Basis& full) const;

  int original_vars() const { return orig_vars_; }
  int original_rows() const { return orig_rows_; }
  /// Model-sense objective contribution of the removed variables: a value
  /// or bound proven on the reduced model translates to the full model by
  /// adding this (exactly what `expand` does to the objective).
  double objective_offset() const { return obj_offset_; }

 private:
  friend class Presolver;

  enum class Act : unsigned char {
    kFixVar,      // variable fixed at `value` (bounds / dual fixing); no row
    kFixedByRow,  // equality singleton row fixed the variable; row dropped
    kDropRow,     // redundant / empty / dominated row; dual 0
    kSingletonRow,  // inequality singleton folded into a variable bound
    kTighten,       // bound tightened by propagation from `row` (row kept)
    kFreeSlack,     // zero-cost free-upper column absorbed its only row
  };
  struct Action {
    Act kind;
    bool at_upper = false;  // which bound kSingletonRow / kTighten touched
    int var = -1;
    int row = -1;
    double coef = 0.0;       // coefficient of `var` in `row`
    double new_bound = 0.0;  // bound after the action
    double old_bound = 0.0;  // bound before the action
    double lo_at_drop = 0.0;  // kFreeSlack: the column's lower bound then
  };

  int orig_vars_ = 0;
  int orig_rows_ = 0;
  bool milp_ = false;  // no dual recovery
  double obj_offset_ = 0.0;   // model-sense objective of the removed vars
  std::vector<int> var_map_;  // original var -> reduced var, -1 if removed
  std::vector<int> row_map_;  // original row -> reduced row, -1 if removed
  std::vector<int> red_var_;  // reduced var -> original var
  std::vector<int> red_row_;  // reduced row -> original row
  std::vector<double> fixed_value_;      // per original var; kept vars 0
  std::vector<VarStatus> fixed_status_;  // bound side for removed vars
  std::vector<double> red_lo_, red_hi_;  // reduced bounds
  std::vector<Action> actions_;
};

struct PresolveResult {
  /// Presolve proved infeasibility (beyond the simplex Phase-1 margin);
  /// `reduced` / `post` are not meaningful.
  bool infeasible = false;
  Model reduced;
  Postsolve post;
  PresolveStats stats;
};

/// Runs the reduction passes on `model`. The model must satisfy the
/// solve_lp entry contract (finite lower bounds); callers validate first.
PresolveResult presolve_model(const Model& model,
                              const PresolveOptions& options = {});

/// The cold-start basis of `model`: every slack basic, every structural
/// column at its lower bound. Used to keep the warm-start contract — the
/// handle always holds a full-shape basis after a solve — on paths where
/// presolve settles the verdict before any simplex engine runs.
Basis slack_basis(const Model& model);

}  // namespace bate
