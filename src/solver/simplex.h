// Bounded-variable revised primal simplex over a product-form-of-inverse
// (PFI / eta-file) basis representation.
//
// Handles the LP classes this repository produces (traffic-scheduling LPs,
// TE baselines, LP relaxations inside branch & bound): minimize or maximize
// c'x subject to rows {<=, >=, =} and variable bounds [l, u] with finite
// lower bounds (all our variables are nonnegative) and possibly infinite
// upper bounds.
//
// Method: rows are normalized to <= / = and given slack columns; an
// infeasible slack basis is repaired with artificial columns minimized in a
// Phase-1 objective; Phase 2 reuses the final Phase-1 basis. The hot path
// (DESIGN.md "Solver performance"):
//
//  * B^-1 is never formed. Each pivot appends one sparse eta factor; FTRAN /
//    BTRAN stream through the eta file, and the file is rebuilt from the
//    basis columns (reinversion) every 256 pivots.
//  * Reduced costs are cached for every column and updated from the pivot
//    row after each basis change (d' = d - (d_q / w_r) * alpha_r), instead
//    of recomputing c_j - y'A_j for all columns each iteration.
//  * Pricing is partial: a rotating window of columns is scanned against the
//    cached reduced costs (Dantzig rule inside the window); only when a full
//    rotation prices out are the reduced costs recomputed exactly to either
//    confirm optimality or resume. Bland's rule still takes over under
//    sustained degeneracy (with exact reduced costs, preserving the
//    anti-cycling guarantee).
//
// Warm restarts (the WarmStart handle below) dispatch on the restarted
// basis: primal-feasible bases go straight to the primal Phase 2; a basis
// that is primal-infeasible but dual-feasible — the branch & bound child
// case, the parent's optimal basis with one bound changed — is re-solved
// with bounded-variable dual simplex pivots on the same eta file (leaving
// row = most-violating basic, entering column by the dual ratio test
// min |d_j / alpha_j| over sign-eligible columns); anything else, or a
// stalled dual loop, falls back to the composite-bound Phase-1 repair.
//
// `reference_mode` disables all of these optimizations — full Dantzig
// pricing over freshly computed reduced costs plus a refactorization every
// iteration, no presolve, no warm or dual restarts — and is the
// debug/equivalence baseline the tests compare against
// (tests/simplex_equivalence_test.cpp).
#pragma once

#include <vector>

#include "solver/model.h"

namespace bate {

/// Status of one column (structural variable or row slack) in a basis
/// snapshot. Nonbasic columns sit at one of their bounds; `kAtUpper` on a
/// column with an infinite upper bound is repaired to `kAtLower` on load.
enum class VarStatus : unsigned char { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

/// A simplex basis snapshot: the basic column of every row plus the status
/// of every column (structural columns first, then one slack per row, in row
/// order). Artificial columns are never exported — a basic artificial is
/// swapped for the slack of its row before the snapshot is taken (both are
/// unit columns in the same row, so nonsingularity is preserved).
///
/// A basis is *stale* for a model when the shape differs
/// (structural_count/constraint_count mismatch); stale bases are ignored and
/// the solve falls back to the cold path. A caller whose model changes shape
/// translates the basis by identity first (the scheduling round does, see
/// ScheduleBasisCache). See DESIGN.md "Solver performance" for the full
/// warm-start contract.
struct Basis {
  int structural_count = 0;
  int constraint_count = 0;
  std::vector<int> basic;          // per row: basic column index
  std::vector<VarStatus> status;   // per column: structural, then slacks

  bool empty() const { return basic.empty() && status.empty(); }
  /// Shape check only (cheap); content validity is checked on install.
  bool compatible_with(const Model& model) const {
    return structural_count == model.variable_count() &&
           constraint_count == model.constraint_count() &&
           static_cast<int>(basic.size()) == constraint_count &&
           static_cast<int>(status.size()) ==
               structural_count + constraint_count;
  }
};

/// In/out warm-start handle for solve_lp. On input, a non-empty `basis`
/// compatible with the model restarts the solve from that basis (fresh
/// factorization, bound-flip repair of nonbasic statuses, composite Phase 1
/// for any primal infeasibility). On output, `basis` holds the final basis
/// of the solve (cold or warm) so the caller can chain re-solves, and
/// `used` reports whether the input basis was actually accepted.
struct WarmStart {
  Basis basis;
  bool used = false;
};

/// The engine's tolerances, iteration limit, refactorization cadence and
/// pricing window are fixed constants in simplex.cpp; these are the knobs
/// callers set.
struct SimplexOptions {
  /// Debug / equivalence baseline: full pricing over exact reduced costs and
  /// a refactorization every iteration. Orders of magnitude slower; only for
  /// tests and the bench_solver before/after comparison.
  bool reference_mode = false;
  /// Shrink the model with solver/presolve.h before solving and map the
  /// solution (primal, duals, basis) back afterwards. `reference_mode`
  /// ignores it, the same contract as pricing and warm starts. Branch &
  /// bound presolves once at the root and searches the reduced model.
  bool presolve = true;
};

/// Solves the LP (integrality markers are ignored). Throws
/// std::invalid_argument for models with variables whose lower bound is not
/// finite.
///
/// `warm` (optional) carries a basis across related solves: a compatible
/// input basis is restarted from (stale or unusable bases fall back to the
/// cold path — the result is identical either way, only the work differs),
/// and the final basis is written back on return. `reference_mode` ignores
/// warm input so the equivalence baseline is untouched.
Solution solve_lp(const Model& model, const SimplexOptions& options = {},
                  WarmStart* warm = nullptr);

}  // namespace bate
