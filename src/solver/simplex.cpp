#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/presolve.h"
#include "util/check.h"

namespace bate {

namespace {

// Engine tuning: fixed values every solve uses (no caller tunes them).
constexpr int kMaxIterations = 200000;   // across both phases
constexpr double kTol = 1e-7;            // feasibility / optimality tolerance
constexpr double kPivotTol = 1e-9;       // minimum |pivot| magnitude
constexpr int kDegenerateSwitch = 60;    // degenerate pivots before Bland
/// Pivots between basis refactorizations (eta-file rebuild; also the
/// basic-value refresh cadence bounding numerical drift).
constexpr int kRecomputeEvery = 256;
static_assert(kMaxIterations > 0 && kTol > 0.0 && kPivotTol > 0.0,
              "simplex: nonsensical tuning constants");

/// Tableau-consistency contract (check.h): every row must reference declared
/// variables with finite coefficients, and no bound or rhs may be NaN. A
/// model violating this produced out-of-bounds column indexing (UB) before;
/// it now aborts through BATE_ASSERT instead of returning garbage.
void validate_model(const Model& model) {
  const int n = model.variable_count();
  for (int j = 0; j < n; ++j) {
    const Variable& v = model.variable(j);
    BATE_ASSERT_MSG(!std::isnan(v.lower) && !std::isnan(v.upper),
                    "simplex: NaN variable bound");
    BATE_ASSERT_MSG(!std::isnan(v.objective), "simplex: NaN objective");
  }
  for (int r = 0; r < model.constraint_count(); ++r) {
    const Constraint& c = model.constraint(r);
    BATE_ASSERT_MSG(!std::isnan(c.rhs), "simplex: NaN constraint rhs");
    for (const Term& t : c.terms) {
      BATE_ASSERT_MSG(t.var >= 0 && t.var < n,
                      "simplex: constraint references unknown variable");
      BATE_ASSERT_MSG(std::isfinite(t.coef),
                      "simplex: non-finite constraint coefficient");
    }
  }
}

/// Which path a warm restart took (bate_solver_restart_*_total).
enum class RestartPath { kPrimal, kDual, kComposite, kFallback };

/// One count per solve that was handed a basis to restart from.
void record_restart(RestartPath path) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  static obs::Counter& primal = reg.counter("bate_solver_restart_primal_total");
  static obs::Counter& dual = reg.counter("bate_solver_restart_dual_total");
  static obs::Counter& composite =
      reg.counter("bate_solver_restart_composite_total");
  static obs::Counter& fallback =
      reg.counter("bate_solver_restart_fallback_total");
  switch (path) {
    case RestartPath::kPrimal: primal.inc(); break;
    case RestartPath::kDual: dual.inc(); break;
    case RestartPath::kComposite: composite.inc(); break;
    case RestartPath::kFallback: fallback.inc(); break;
  }
}

/// A sparse matrix stored flat, one line after another: line i's terms are
/// terms[start[i], start[i + 1]). The engine holds the normalized structural
/// matrix twice, by column (Term.var is the row) and by row (Term.var is the
/// column); slack/artificial columns are unit vectors handled implicitly.
struct FlatSparse {
  std::vector<int> start;
  std::vector<Term> terms;

  std::span<const Term> line(int i) const {
    const auto b = static_cast<std::size_t>(start[static_cast<std::size_t>(i)]);
    const auto e =
        static_cast<std::size_t>(start[static_cast<std::size_t>(i) + 1]);
    return {terms.data() + b, e - b};
  }
};

/// One PFI factor: pivoting column w into row `row` multiplies B^-1 from the
/// left by E^-1, the identity with column `row` replaced by
/// eta = (1/w_r at r; -w_i/w_r elsewhere). Off-pivot entries live in a flat
/// shared arena ([begin, end) into eta_terms_) to keep FTRAN/BTRAN streaming
/// cache-friendly.
struct EtaHeader {
  int row;
  double pivot;  // 1 / w_row
  int begin;
  int end;
};

class SimplexEngine {
 public:
  SimplexEngine(const Model& model, const SimplexOptions& options)
      : model_(model), opt_(options) {
    build_common();
    install_cold_basis();
  }

  /// Warm construction: restart from a caller-supplied basis. Check
  /// `warm_ok()` — a malformed basis (duplicate basic column, status
  /// mismatch) leaves the engine unusable and the caller must rebuild cold.
  SimplexEngine(const Model& model, const SimplexOptions& options,
                const Basis& warm)
      : model_(model), opt_(options) {
    build_common();
    warm_ok_ = install_warm_basis(warm);
  }

  bool warm_ok() const { return warm_ok_; }
  bool gave_up() const { return gave_up_; }
  /// The path run_warm() took; kFallback once the composite phase gave up.
  RestartPath restart_path() const {
    return gave_up_ ? RestartPath::kFallback : restart_path_;
  }

  Solution run() {
    // Phase 1: minimize total artificial infeasibility if any artificials
    // carry nonzero value.
    double art_total = 0.0;
    for (int j = first_artificial_; j < ncols_; ++j) art_total += x_[sz(j)];
    if (art_total > kTol) {
      set_phase1_objective();
      const SolveStatus st = iterate();
      if (st == SolveStatus::kIterationLimit) return finish(st);
      double infeas = 0.0;
      for (int j = first_artificial_; j < ncols_; ++j) infeas += x_[sz(j)];
      if (infeas > 1e-6) return finish(SolveStatus::kInfeasible);
    }
    // Freeze artificials at zero and run Phase 2 with the real objective.
    for (int j = first_artificial_; j < ncols_; ++j) {
      upper_[sz(j)] = 0.0;
      x_[sz(j)] = std::max(0.0, std::min(x_[sz(j)], 0.0));
    }
    set_phase2_objective();
    return finish(iterate());
  }

  /// Warm path: no artificial columns. Dispatch on what the restarted basis
  /// actually is:
  ///
  ///  * primal feasible — straight to the primal Phase 2 (the PR 3 path);
  ///  * primal infeasible but DUAL feasible (the branch & bound child case:
  ///    the parent's optimal basis with one bound tightened keeps its
  ///    reduced-cost signs) — dual simplex pivots (dual_iterate) restore
  ///    primal feasibility while preserving dual feasibility, then the
  ///    primal loop confirms optimality against exact reduced costs;
  ///  * otherwise, or when the dual loop stalls — the composite-bound
  ///    Phase 1 repair (run_warm_composite), which is sound from any basis.
  ///
  /// The dual loop never declares a verdict on its own: "no entering
  /// column" (a dual-unboundedness certificate under exact arithmetic) and
  /// degenerate stalls both hand over to the composite repair, whose
  /// infeasibility argument does not depend on cached reduced costs.
  Solution run_warm() {
    set_phase2_objective();
    restart_path_ = RestartPath::kPrimal;
    if (primal_feasible()) return finish(iterate());
    if (dual_feasible()) {
      restart_path_ = RestartPath::kDual;
      switch (dual_iterate()) {
        case DualResult::kPrimalFeasible:
          return finish(iterate());
        case DualResult::kIterationLimit:
          return finish(SolveStatus::kIterationLimit);
        case DualResult::kStall:
          break;  // fall through to the composite repair
      }
    }
    restart_path_ = RestartPath::kComposite;
    return run_warm_composite();
  }

  /// Composite-bound Phase 1 repair — each round relaxes the
  /// violated bound of every out-of-range basic variable to its current
  /// value, prices a +/-1 cost on it to drive it back inside, re-solves, and
  /// snaps variables that re-entered their true range. Soundness of the
  /// infeasibility verdict: the composite problem relaxes the true feasible
  /// region, and any true-feasible point scores strictly better on the
  /// composite objective than a point where every shifted variable still
  /// violates — so such a composite *optimum* proves the true region empty.
  /// A composite phase that diverges (unbounded ray, or more rounds than
  /// rows) sets gave_up(); the caller re-solves cold, which is always sound.
  Solution run_warm_composite() {
    struct Shift {
      int col;
      double lo, hi;  // true bounds, restored after the round
    };
    std::vector<Shift> shifts;
    for (int round = 0; round <= m_ + 1; ++round) {
      shifts.clear();
      c_.assign(sz(ncols_), 0.0);
      for (int r = 0; r < m_; ++r) {
        const int b = basis_[sz(r)];
        if (x_[sz(b)] < lower_[sz(b)] - kTol) {
          shifts.push_back({b, lower_[sz(b)], upper_[sz(b)]});
          lower_[sz(b)] = x_[sz(b)];
          c_[sz(b)] = -1.0;  // minimize: drive up toward the true lower bound
        } else if (x_[sz(b)] > upper_[sz(b)] + kTol) {
          shifts.push_back({b, lower_[sz(b)], upper_[sz(b)]});
          upper_[sz(b)] = x_[sz(b)];
          c_[sz(b)] = 1.0;  // drive down toward the true upper bound
        }
      }
      if (shifts.empty()) {
        // Primal feasible: straight to Phase 2 on the real objective.
        set_phase2_objective();
        return finish(iterate());
      }
      recompute_reduced_costs();
      const SolveStatus st = iterate();
      for (const Shift& s : shifts) {
        lower_[sz(s.col)] = s.lo;
        upper_[sz(s.col)] = s.hi;
      }
      if (st == SolveStatus::kIterationLimit) return finish(st);
      if (st == SolveStatus::kUnbounded) break;  // composite diverged
      // A shifted variable that left the basis was pinned at its *relaxed*
      // bound; snap it to the nearest true bound before the next round
      // re-checks the basic values against it.
      bool snapped_nonbasic = false;
      for (const Shift& s : shifts) {
        if (in_basis_[sz(s.col)]) continue;
        const double xv = x_[sz(s.col)];
        if (xv < s.lo) {
          x_[sz(s.col)] = s.lo;
          at_upper_[sz(s.col)] = 0;
          snapped_nonbasic = true;
        } else if (s.hi != kInfinity && xv > s.hi) {
          x_[sz(s.col)] = s.hi;
          at_upper_[sz(s.col)] = 1;
          snapped_nonbasic = true;
        }
      }
      if (snapped_nonbasic) recompute_basics();
      int still_violating = 0;
      for (const Shift& s : shifts) {
        if (!in_basis_[sz(s.col)]) continue;
        const double xv = x_[sz(s.col)];
        if (xv < s.lo - kTol || xv > s.hi + kTol) ++still_violating;
      }
      if (!snapped_nonbasic &&
          still_violating == static_cast<int>(shifts.size())) {
        return finish(SolveStatus::kInfeasible);
      }
    }
    gave_up_ = true;
    Solution sol;
    sol.status = SolveStatus::kIterationLimit;  // discarded by the caller
    return sol;
  }

  /// Snapshot of the final basis for warm-starting a related solve. A basic
  /// artificial (unit column +/-e_a) is exported as the slack of its row
  /// (e_a — a parallel unit column, so the swap keeps the basis nonsingular
  /// and that slack cannot already be basic elsewhere).
  Basis export_basis() const {
    Basis b;
    b.structural_count = nstruct_;
    b.constraint_count = m_;
    b.basic.resize(sz(m_));
    b.status.assign(sz(nstruct_ + m_), VarStatus::kAtLower);
    for (int j = 0; j < nstruct_ + m_; ++j) {
      if (in_basis_[sz(j)]) {
        b.status[sz(j)] = VarStatus::kBasic;
      } else if (at_upper_[sz(j)]) {
        b.status[sz(j)] = VarStatus::kAtUpper;
      }
    }
    for (int r = 0; r < m_; ++r) {
      int col = basis_[sz(r)];
      if (col >= first_artificial_) {
        const int slack = nstruct_ + art_row_[sz(col)];
        if (b.status[sz(slack)] == VarStatus::kBasic) return {};  // defensive
        b.status[sz(slack)] = VarStatus::kBasic;
        col = slack;
      }
      b.basic[sz(r)] = col;
    }
    return b;
  }

 private:
  static std::size_t sz(int i) { return static_cast<std::size_t>(i); }

  void build_common() {
    m_ = model_.constraint_count();
    nstruct_ = model_.variable_count();
    // Column layout: [0, nstruct) structural, [nstruct, nstruct+m) slacks,
    // [first_artificial_, ncols_) artificials (added lazily below).
    lower_.resize(sz(nstruct_ + m_));
    upper_.resize(sz(nstruct_ + m_));

    const bool maximize = model_.sense() == Sense::kMaximize;
    obj_struct_.resize(sz(nstruct_));
    for (int j = 0; j < nstruct_; ++j) {
      const Variable& v = model_.variable(j);
      if (!std::isfinite(v.lower)) {
        throw std::invalid_argument("simplex: finite lower bounds required");
      }
      if (v.lower > v.upper) {
        throw std::invalid_argument("simplex: lower bound exceeds upper");
      }
      lower_[sz(j)] = v.lower;
      upper_[sz(j)] = v.upper;
      obj_struct_[sz(j)] = maximize ? -v.objective : v.objective;
    }

    // Both stores are sized by counting, then filled in one pass each: a
    // column's terms in row order, a row's in column order.
    cols_.start.assign(sz(nstruct_ + 1), 0);
    rows_.start.assign(sz(m_ + 1), 0);
    for (int r = 0; r < m_; ++r) {
      const Constraint& c = model_.constraint(r);
      rows_.start[sz(r + 1)] =
          rows_.start[sz(r)] + static_cast<int>(c.terms.size());
      for (const Term& t : c.terms) ++cols_.start[sz(t.var + 1)];
    }
    for (int j = 0; j < nstruct_; ++j) {
      cols_.start[sz(j + 1)] += cols_.start[sz(j)];
    }
    const auto nnz = sz(rows_.start[sz(m_)]);
    cols_.terms.resize(nnz);
    rows_.terms.resize(nnz);
    std::vector<int> cursor(cols_.start.begin(), cols_.start.end() - 1);

    // Normalize rows to <= / = by flipping >= rows; attach slack bounds.
    rhs_.resize(sz(m_));
    row_flip_.assign(sz(m_), 1.0);
    for (int r = 0; r < m_; ++r) {
      const Constraint& c = model_.constraint(r);
      double flip = 1.0;
      if (c.relation == Relation::kGreaterEqual) flip = -1.0;
      row_flip_[sz(r)] = flip;
      rhs_[sz(r)] = flip * c.rhs;
      for (const Term& t : c.terms) {
        cols_.terms[sz(cursor[sz(t.var)]++)] = {r, flip * t.coef};
      }
      const int slack = nstruct_ + r;
      lower_[sz(slack)] = 0.0;
      upper_[sz(slack)] =
          (c.relation == Relation::kEqual) ? 0.0 : kInfinity;
    }

    // Row-wise adjacency of the structural columns, used to form the pivot
    // row alpha = rho^T A sparsely when updating the cached reduced costs.
    cursor.assign(rows_.start.begin(), rows_.start.end() - 1);
    for (int j = 0; j < nstruct_; ++j) {
      for (const Term& t : cols_.line(j)) {
        rows_.terms[sz(cursor[sz(t.var)]++)] = {j, t.coef};
      }
    }
  }

  void init_workspaces() {
    d_.assign(sz(ncols_), 0.0);
    alpha_.assign(sz(ncols_), 0.0);
    alpha_seen_.assign(sz(ncols_), 0);
    w_.assign(sz(m_), 0.0);
    rho_.assign(sz(m_), 0.0);
    ywork_.assign(sz(m_), 0.0);
    pivoted_.assign(sz(m_), 0);
    new_basis_.assign(sz(m_), -1);
    w_seen_.assign(sz(m_), 0);
  }

  void install_cold_basis() {
    // Initial point: structural nonbasic at lower bound; slacks basic.
    ncols_ = nstruct_ + m_;
    x_.assign(sz(ncols_), 0.0);
    at_upper_.assign(sz(ncols_), 0);
    in_basis_.assign(sz(ncols_), 0);
    for (int j = 0; j < nstruct_; ++j) x_[sz(j)] = lower_[sz(j)];

    std::vector<double> activity(sz(m_), 0.0);
    for (int j = 0; j < nstruct_; ++j) {
      if (x_[sz(j)] == 0.0) continue;
      for (const Term& t : cols_.line(j)) {
        activity[sz(t.var)] += t.coef * x_[sz(j)];
      }
    }

    basis_.resize(sz(m_));
    first_artificial_ = ncols_;
    std::vector<int> art_rows;
    for (int r = 0; r < m_; ++r) {
      const double resid = rhs_[sz(r)] - activity[sz(r)];
      const int slack = nstruct_ + r;
      const bool slack_ok = resid >= lower_[sz(slack)] - kTol &&
                            resid <= upper_[sz(slack)] + kTol;
      if (slack_ok) {
        basis_[sz(r)] = slack;
        in_basis_[sz(slack)] = 1;
        x_[sz(slack)] = std::max(resid, lower_[sz(slack)]);
        if (upper_[sz(slack)] != kInfinity) {
          x_[sz(slack)] = std::min(x_[sz(slack)], upper_[sz(slack)]);
        }
      } else {
        // Slack pinned to its nearest bound; an artificial absorbs the rest.
        const double s =
            resid < lower_[sz(slack)] ? lower_[sz(slack)] : upper_[sz(slack)];
        x_[sz(slack)] = s;
        at_upper_[sz(slack)] =
            (s == upper_[sz(slack)] && s != lower_[sz(slack)]) ? 1 : 0;
        art_rows.push_back(r);
        art_sign_.push_back(resid - s >= 0.0 ? 1.0 : -1.0);
      }
    }

    // Artificial columns: +/-1 in their row, bounds [0, inf), basic.
    for (const int r : art_rows) {
      const int col = ncols_++;
      lower_.push_back(0.0);
      upper_.push_back(kInfinity);
      x_.push_back(0.0);
      at_upper_.push_back(0);
      in_basis_.push_back(1);
      basis_[sz(r)] = col;
    }
    art_row_.assign(sz(ncols_), -1);
    {
      std::size_t a = 0;
      for (int col = first_artificial_; col < ncols_; ++col, ++a) {
        art_row_[sz(col)] = art_rows[a];
      }
    }

    // Basis validity: every row owns exactly one basic column in range.
    for (int r = 0; r < m_; ++r) {
      BATE_ASSERT_MSG(basis_[sz(r)] >= 0 && basis_[sz(r)] < ncols_ &&
                          in_basis_[sz(basis_[sz(r)])] == 1,
                      "simplex: invalid initial basis");
    }

    // The initial basis is diagonal (slack/artificial unit columns, the
    // artificial sign folded into base_diag_); the eta file starts empty.
    base_diag_.assign(sz(m_), 1.0);
    for (int r = 0; r < m_; ++r) {
      const int bcol = basis_[sz(r)];
      if (bcol >= first_artificial_) {
        base_diag_[sz(r)] = 1.0 / art_sign_[sz(bcol - first_artificial_)];
      }
    }

    init_workspaces();
    recompute_basics();
  }

  /// Installs a caller-supplied basis: no artificial columns, nonbasic
  /// statuses repaired by bound-flipping (kAtUpper on an infinite upper
  /// bound, or a kBasic column no row references, falls back to the lower
  /// bound), then a fresh factorization — refactorize() also evicts
  /// numerically dependent columns to a bound and hands their rows to the
  /// slacks. Returns false on a malformed basis (caller rebuilds cold).
  bool install_warm_basis(const Basis& warm) {
    ncols_ = nstruct_ + m_;
    first_artificial_ = ncols_;
    x_.assign(sz(ncols_), 0.0);
    at_upper_.assign(sz(ncols_), 0);
    in_basis_.assign(sz(ncols_), 0);
    basis_.assign(sz(m_), -1);
    for (int r = 0; r < m_; ++r) {
      const int col = warm.basic[sz(r)];
      if (col < 0 || col >= ncols_ || in_basis_[sz(col)] ||
          warm.status[sz(col)] != VarStatus::kBasic) {
        return false;
      }
      basis_[sz(r)] = col;
      in_basis_[sz(col)] = 1;
    }
    for (int j = 0; j < ncols_; ++j) {
      if (in_basis_[sz(j)]) continue;
      const bool to_upper = warm.status[sz(j)] == VarStatus::kAtUpper &&
                            upper_[sz(j)] != kInfinity;
      x_[sz(j)] = to_upper ? upper_[sz(j)] : lower_[sz(j)];
      at_upper_[sz(j)] = to_upper ? 1 : 0;
    }
    art_row_.assign(sz(ncols_), -1);
    art_sign_.clear();
    base_diag_.assign(sz(m_), 1.0);
    init_workspaces();
    c_.assign(sz(ncols_), 0.0);  // real objective set by run_warm()
    refactorize();
    return true;
  }

  /// Column of the full constraint matrix as sparse (row, coef) terms.
  /// Structural columns are borrowed views into the column store; unit
  /// (slack / artificial) columns are synthesized into the caller's
  /// one-element buffer — no per-column vector copies on the hot path.
  std::span<const Term> column(int col, Term& unit) const {
    if (col < nstruct_) return cols_.line(col);
    if (col < nstruct_ + m_) {
      unit = {col - nstruct_, 1.0};
    } else {
      unit = {art_row_[sz(col)], art_sign_[sz(col - first_artificial_)]};
    }
    return {&unit, 1};
  }

  // --- PFI basis representation --------------------------------------------

  /// FTRAN: v := B^-1 v, streaming the eta file forward.
  void ftran(std::vector<double>& v) const {
    for (int i = 0; i < m_; ++i) v[sz(i)] *= base_diag_[sz(i)];
    for (const EtaHeader& e : etas_) {
      const double vr = v[sz(e.row)];
      if (vr == 0.0) continue;
      v[sz(e.row)] = e.pivot * vr;
      for (int k = e.begin; k < e.end; ++k) {
        v[sz(eta_terms_[sz(k)].var)] += eta_terms_[sz(k)].coef * vr;
      }
    }
  }

  /// BTRAN: v := B^-T v, streaming the eta file backward.
  void btran(std::vector<double>& v) const {
    for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
      const EtaHeader& e = *it;
      double acc = e.pivot * v[sz(e.row)];
      for (int k = e.begin; k < e.end; ++k) {
        acc += eta_terms_[sz(k)].coef * v[sz(eta_terms_[sz(k)].var)];
      }
      v[sz(e.row)] = acc;
    }
    for (int i = 0; i < m_; ++i) v[sz(i)] *= base_diag_[sz(i)];
  }

  /// Appends the eta factor for pivoting column `w` (= B^-1 A_enter) into
  /// row `row`.
  void append_eta(int row, const std::vector<double>& w) {
    const double inv = 1.0 / w[sz(row)];
    const int begin = static_cast<int>(eta_terms_.size());
    for (int i = 0; i < m_; ++i) {
      if (i == row || w[sz(i)] == 0.0) continue;
      eta_terms_.push_back({i, -w[sz(i)] * inv});
    }
    etas_.push_back({row, inv, begin, static_cast<int>(eta_terms_.size())});
  }

  /// Marks row i as touched in the reinversion workspace w_.
  void touch_w(int i) {
    if (w_seen_[sz(i)]) return;
    w_seen_[sz(i)] = 1;
    w_touched_.push_back(i);
  }

  /// FTRAN of the column loaded into w_ at the touched rows: the same
  /// operations on the same entries as ftran(), skipping only the exact
  /// zeros, so every nonzero it leaves is bit-identical to ftran()'s. Rows
  /// an eta fills in join the touched set.
  void ftran_touched() {
    for (const int i : w_touched_) w_[sz(i)] *= base_diag_[sz(i)];
    for (const EtaHeader& e : etas_) {
      const double vr = w_[sz(e.row)];
      if (vr == 0.0) continue;
      w_[sz(e.row)] = e.pivot * vr;
      for (int k = e.begin; k < e.end; ++k) {
        const Term& t = eta_terms_[sz(k)];
        touch_w(t.var);
        w_[sz(t.var)] += t.coef * vr;
      }
    }
  }

  /// Zeroes w_ at the touched rows, leaving the workspace clean.
  void clear_touched() {
    for (const int i : w_touched_) {
      w_[sz(i)] = 0.0;
      w_seen_[sz(i)] = 0;
    }
    w_touched_.clear();
  }

  /// Rebuilds the eta file from the current basis columns (reinversion),
  /// then refreshes basic values and reduced costs. Unit basis columns fold
  /// into the diagonal base; structural columns, in basis-row order, pivot
  /// greedily on the largest available magnitude (the lowest row on a tie).
  /// A numerically dependent structural column (|pivot| below tolerance —
  /// drift, not a property of a valid basis) is evicted and its row handed
  /// back to the slack. Each column is worked on its nonzeros only; the
  /// pivot choice and the eta terms come from its touched rows in ascending
  /// order, so the file is the one a dense pass over all rows would build.
  void refactorize() {
    ++refactorizations_;
    etas_.clear();
    eta_terms_.clear();
    std::fill(base_diag_.begin(), base_diag_.end(), 1.0);
    std::fill(pivoted_.begin(), pivoted_.end(), 0);
    std::fill(new_basis_.begin(), new_basis_.end(), -1);
    structural_.clear();
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[sz(r)];
      if (b < nstruct_) {
        structural_.push_back(b);
        continue;
      }
      int row = b - nstruct_;
      double coef = 1.0;
      if (b >= first_artificial_) {
        row = art_row_[sz(b)];
        coef = art_sign_[sz(b - first_artificial_)];
      }
      BATE_ASSERT_MSG(!pivoted_[sz(row)],
                      "simplex: duplicate unit column in basis");
      base_diag_[sz(row)] = 1.0 / coef;
      pivoted_[sz(row)] = 1;
      new_basis_[sz(row)] = b;
    }
    // The pivots leave w_ dense; the loop below keeps it zero between
    // columns.
    std::fill(w_.begin(), w_.end(), 0.0);
    for (const int c : structural_) {
      for (const Term& t : cols_.line(c)) {
        touch_w(t.var);
        w_[sz(t.var)] = t.coef;
      }
      ftran_touched();
      std::sort(w_touched_.begin(), w_touched_.end());
      int best_row = -1;
      double best = 1e-10;
      for (const int r : w_touched_) {
        if (pivoted_[sz(r)]) continue;
        if (std::abs(w_[sz(r)]) > best) {
          best = std::abs(w_[sz(r)]);
          best_row = r;
        }
      }
      if (best_row < 0) {
        clear_touched();
        // Evict: pin to the nearest bound; the slack takes its row below.
        in_basis_[sz(c)] = 0;
        const double lo = lower_[sz(c)];
        const double hi = upper_[sz(c)];
        const double xv = x_[sz(c)];
        const bool to_upper = hi != kInfinity && std::abs(hi - xv) < std::abs(xv - lo);
        x_[sz(c)] = to_upper ? hi : lo;
        at_upper_[sz(c)] = to_upper ? 1 : 0;
        continue;
      }
      // append_eta() over the touched rows.
      const double inv = 1.0 / w_[sz(best_row)];
      const int begin = static_cast<int>(eta_terms_.size());
      for (const int i : w_touched_) {
        if (i == best_row || w_[sz(i)] == 0.0) continue;
        eta_terms_.push_back({i, -w_[sz(i)] * inv});
      }
      etas_.push_back(
          {best_row, inv, begin, static_cast<int>(eta_terms_.size())});
      clear_touched();
      pivoted_[sz(best_row)] = 1;
      new_basis_[sz(best_row)] = c;
    }
    for (int r = 0; r < m_; ++r) {
      if (pivoted_[sz(r)]) continue;
      const int slack = nstruct_ + r;
      new_basis_[sz(r)] = slack;
      in_basis_[sz(slack)] = 1;
    }
    basis_.swap(new_basis_);
    pivots_since_refactor_ = 0;
    recompute_basics();
    recompute_reduced_costs();
  }

  // --- Objectives and reduced costs ----------------------------------------

  void set_phase1_objective() {
    c_.assign(sz(ncols_), 0.0);
    for (int j = first_artificial_; j < ncols_; ++j) c_[sz(j)] = 1.0;
    recompute_reduced_costs();
  }

  void set_phase2_objective() {
    c_.assign(sz(ncols_), 0.0);
    for (int j = 0; j < nstruct_; ++j) c_[sz(j)] = obj_struct_[sz(j)];
    recompute_reduced_costs();
  }

  /// Exact reduced costs for every column: d_j = c_j - y^T A_j with
  /// y = c_B^T B^-1 (one BTRAN, then one pass over the column nonzeros).
  void recompute_reduced_costs() {
    for (int r = 0; r < m_; ++r) ywork_[sz(r)] = c_[sz(basis_[sz(r)])];
    btran(ywork_);
    Term unit;
    for (int j = 0; j < ncols_; ++j) {
      if (in_basis_[sz(j)]) {
        d_[sz(j)] = 0.0;
        continue;
      }
      double d = c_[sz(j)];
      for (const Term& t : column(j, unit)) d -= ywork_[sz(t.var)] * t.coef;
      d_[sz(j)] = d;
    }
    d_exact_ = true;
  }

  /// Updates the cached reduced costs across a basis change from the pivot
  /// row: with rho = e_r^T B^-1 (old basis) and mu = d_enter / w_r,
  /// d_j' = d_j - mu * (rho^T A_j). The pivot row is formed sparsely from
  /// the row-wise adjacency, touching only columns with support in rho.
  void update_reduced_costs(int enter, int leave_row, double pivot_w) {
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[sz(leave_row)] = 1.0;
    btran(rho_);
    const double mu = d_[sz(enter)] / pivot_w;
    alpha_touched_.clear();
    auto touch = [&](int j, double v) {
      if (!alpha_seen_[sz(j)]) {
        alpha_seen_[sz(j)] = 1;
        alpha_touched_.push_back(j);
      }
      alpha_[sz(j)] += v;
    };
    for (int i = 0; i < m_; ++i) {
      const double rv = rho_[sz(i)];
      if (rv == 0.0) continue;
      for (const Term& t : rows_.line(i)) touch(t.var, rv * t.coef);
      touch(nstruct_ + i, rv);  // slack column e_i
    }
    for (int a = first_artificial_; a < ncols_; ++a) {
      const double rv = rho_[sz(art_row_[sz(a)])];
      if (rv != 0.0) touch(a, rv * art_sign_[sz(a - first_artificial_)]);
    }
    for (const int j : alpha_touched_) {
      d_[sz(j)] -= mu * alpha_[sz(j)];
      alpha_[sz(j)] = 0.0;
      alpha_seen_[sz(j)] = 0;
    }
    d_[sz(enter)] = 0.0;  // entering column becomes basic
    d_exact_ = false;
  }

  // --- Pricing --------------------------------------------------------------

  bool eligible(int j, double& score, double& dir) const {
    if (in_basis_[sz(j)]) return false;
    if (lower_[sz(j)] == upper_[sz(j)]) return false;  // fixed
    const double d = d_[sz(j)];
    if (!at_upper_[sz(j)] && d < -kTol) {
      score = -d;
      dir = 1.0;
      return true;
    }
    if (at_upper_[sz(j)] && d > kTol) {
      score = d;
      dir = -1.0;
      return true;
    }
    return false;
  }

  /// Columns scanned per partial-pricing round, sized from the column
  /// count. Ignored in reference mode.
  int pricing_window() const { return std::max(64, ncols_ / 8); }

  /// Partial pricing against the cached reduced costs: scan from the
  /// rotating cursor, Dantzig-best within the window, extending the scan
  /// until a candidate appears or the rotation completes. Bland mode scans
  /// all columns in index order and takes the first eligible one.
  int price(bool bland, double& enter_dir) {
    if (bland || opt_.reference_mode) {
      int best_j = -1;
      double best = kTol;
      for (int j = 0; j < ncols_; ++j) {
        double score = 0.0;
        double dir = 0.0;
        if (!eligible(j, score, dir)) continue;
        if (bland) {
          enter_dir = dir;
          return j;
        }
        if (score > best) {
          best = score;
          best_j = j;
          enter_dir = dir;
        }
      }
      return best_j;
    }
    const int window = pricing_window();
    int best_j = -1;
    double best = kTol;
    int j = price_cursor_;
    for (int scanned = 1; scanned <= ncols_; ++scanned) {
      double score = 0.0;
      double dir = 0.0;
      if (eligible(j, score, dir) && score > best) {
        best = score;
        best_j = j;
        enter_dir = dir;
      }
      ++j;
      if (j == ncols_) j = 0;
      if (best_j >= 0 && scanned >= window) break;
    }
    price_cursor_ = j;
    return best_j;
  }

  // --- Main loop -------------------------------------------------------------

  /// Recomputes basic variable values exactly: x_B = B^-1 (b - N x_N).
  void recompute_basics() {
    std::vector<double> resid = rhs_;
    Term unit;
    for (int j = 0; j < ncols_; ++j) {
      if (in_basis_[sz(j)] || x_[sz(j)] == 0.0) continue;
      for (const Term& t : column(j, unit)) {
        resid[sz(t.var)] -= t.coef * x_[sz(j)];
      }
    }
    ftran(resid);
    for (int r = 0; r < m_; ++r) x_[sz(basis_[sz(r)])] = resid[sz(r)];
    iters_since_recompute_ = 0;
  }

  // --- Dual simplex ----------------------------------------------------------

  /// Basic values all inside their bounds (tolerance kTol)?
  bool primal_feasible() const {
    for (int r = 0; r < m_; ++r) {
      const int b = basis_[sz(r)];
      if (x_[sz(b)] < lower_[sz(b)] - kTol ||
          x_[sz(b)] > upper_[sz(b)] + kTol) {
        return false;
      }
    }
    return true;
  }

  /// Nonbasic reduced-cost signs all optimal (at-lower d >= -tol, at-upper
  /// d <= tol)? Requires exact reduced costs (set_phase2_objective). Fixed
  /// columns (lower == upper) are dual-feasible at any sign.
  bool dual_feasible() const {
    for (int j = 0; j < ncols_; ++j) {
      if (in_basis_[sz(j)]) continue;
      if (lower_[sz(j)] == upper_[sz(j)]) continue;
      const double d = d_[sz(j)];
      if (at_upper_[sz(j)]) {
        if (d > kTol) return false;
      } else if (d < -kTol) {
        return false;
      }
    }
    return true;
  }

  enum class DualResult { kPrimalFeasible, kIterationLimit, kStall };

  /// Dual simplex loop: while some basic variable violates a bound, choose
  /// the most-violating row as the leaving row, form its pivot row
  /// alpha = e_r^T B^-1 A sparsely (one BTRAN + the row-wise adjacency, the
  /// same machinery as the primal reduced-cost update), and run the
  /// bounded-variable dual ratio test: among nonbasic columns whose feasible
  /// movement (up from lower, down from upper) drives the leaving variable
  /// toward its violated bound, enter the one minimizing |d_j / alpha_j| —
  /// the largest dual step that keeps every reduced-cost sign valid. Each
  /// pivot appends one eta factor; reduced costs update from the same alpha
  /// row (d' = d - mu * alpha, mu = d_q / alpha_q, which also leaves the
  /// leaving column at its correct new reduced cost -mu).
  ///
  /// Returns kPrimalFeasible when no basic bound violation remains (the
  /// caller confirms optimality through the primal loop's exact-recompute
  /// path), kStall on a tiny pivot, a no-entering-column row, or a long
  /// degenerate run (the caller falls back to the composite repair — always
  /// sound, so the dual loop never has to certify infeasibility itself).
  DualResult dual_iterate() {
    Term unit;
    int degenerate_run = 0;
    auto reset_alpha = [&] {
      for (const int j : alpha_touched_) {
        alpha_[sz(j)] = 0.0;
        alpha_seen_[sz(j)] = 0;
      }
    };
    while (iterations_ < kMaxIterations) {
      ++iterations_;
      ++iters_since_recompute_;
      if (pivots_since_refactor_ >= kRecomputeEvery) {
        refactorize();
      } else if (iters_since_recompute_ >= kRecomputeEvery) {
        recompute_basics();
      }

      // Leaving row: most-violating basic (Dantzig-style dual pricing).
      int r = -1;
      double viol = kTol;
      bool below = false;
      for (int i = 0; i < m_; ++i) {
        const int b = basis_[sz(i)];
        const double lo_gap = lower_[sz(b)] - x_[sz(b)];
        if (lo_gap > viol) {
          viol = lo_gap;
          r = i;
          below = true;
          continue;
        }
        if (upper_[sz(b)] != kInfinity) {
          const double hi_gap = x_[sz(b)] - upper_[sz(b)];
          if (hi_gap > viol) {
            viol = hi_gap;
            r = i;
            below = false;
          }
        }
      }
      if (r < 0) return DualResult::kPrimalFeasible;

      // Pivot row of the leaving row: alpha_j = e_r^T B^-1 A_j, formed
      // sparsely from the row-wise adjacency (the warm path never has
      // artificial columns, so structural + slack coverage is complete).
      std::fill(rho_.begin(), rho_.end(), 0.0);
      rho_[sz(r)] = 1.0;
      btran(rho_);
      alpha_touched_.clear();
      auto touch = [&](int j, double v) {
        if (!alpha_seen_[sz(j)]) {
          alpha_seen_[sz(j)] = 1;
          alpha_touched_.push_back(j);
        }
        alpha_[sz(j)] += v;
      };
      for (int i = 0; i < m_; ++i) {
        const double rv = rho_[sz(i)];
        if (rv == 0.0) continue;
        for (const Term& t : rows_.line(i)) touch(t.var, rv * t.coef);
        touch(nstruct_ + i, rv);  // slack column e_i
      }

      // Bounded dual ratio test. The leaving variable must travel `delta`
      // to reach its violated bound; a nonbasic j moving in its feasible
      // direction changes it at rate `eff` per unit, so only sign-matching
      // columns are eligible, and among them the smallest |d_j / alpha_j|
      // bounds the dual step that keeps every reduced cost sign-valid.
      const int leave = basis_[sz(r)];
      const double target = below ? lower_[sz(leave)] : upper_[sz(leave)];
      const double delta = target - x_[sz(leave)];
      int q = -1;
      double best_ratio = kInfinity;
      double best_alpha = 0.0;
      for (const int j : alpha_touched_) {
        if (in_basis_[sz(j)]) continue;
        if (lower_[sz(j)] == upper_[sz(j)]) continue;  // fixed: cannot move
        const double a = alpha_[sz(j)];
        if (std::abs(a) <= kPivotTol) continue;
        const double eff = at_upper_[sz(j)] ? a : -a;
        if ((delta > 0.0 && eff <= 0.0) || (delta < 0.0 && eff >= 0.0)) {
          continue;
        }
        const double ratio = std::abs(d_[sz(j)]) / std::abs(a);
        if (ratio < best_ratio - 1e-12 ||
            (ratio < best_ratio + 1e-12 &&
             std::abs(a) > std::abs(best_alpha))) {
          best_ratio = ratio;
          best_alpha = a;
          q = j;
        }
      }
      if (q < 0) {
        // Dual unbounded under exact arithmetic = primal infeasible; with
        // cached reduced costs it may also be drift. Hand over either way.
        reset_alpha();
        return DualResult::kStall;
      }

      // FTRAN the entering column for the basis update and primal step.
      std::fill(w_.begin(), w_.end(), 0.0);
      for (const Term& t : column(q, unit)) w_[sz(t.var)] = t.coef;
      ftran(w_);
      const double pivot = w_[sz(r)];
      if (std::abs(pivot) <= kPivotTol) {
        reset_alpha();
        if (pivots_since_refactor_ > 0) {
          refactorize();  // retry the row on a fresh factorization
          continue;
        }
        return DualResult::kStall;
      }

      // Reduced-cost update from the alpha row already in hand (the dual
      // twin of update_reduced_costs; the leaving column is touched with
      // alpha_leave = 1, landing on its new reduced cost -mu).
      const double mu = d_[sz(q)] / pivot;
      for (const int j : alpha_touched_) {
        d_[sz(j)] -= mu * alpha_[sz(j)];
        alpha_[sz(j)] = 0.0;
        alpha_seen_[sz(j)] = 0;
      }
      d_[sz(q)] = 0.0;
      d_exact_ = false;

      // Primal step: the leaving variable lands exactly on its violated
      // bound; the entering variable absorbs the movement. An entering
      // value beyond its own far bound is just primal infeasibility for a
      // later dual iteration — dual feasibility is what the loop maintains.
      const double dt = -delta / pivot;
      for (int i = 0; i < m_; ++i) {
        x_[sz(basis_[sz(i)])] -= dt * w_[sz(i)];
      }
      x_[sz(leave)] = target;
      at_upper_[sz(leave)] = below ? 0 : 1;
      in_basis_[sz(leave)] = 0;
      x_[sz(q)] += dt;
      in_basis_[sz(q)] = 1;
      at_upper_[sz(q)] = 0;
      basis_[sz(r)] = q;
      append_eta(r, w_);
      ++pivots_;
      ++dual_pivots_;
      ++pivots_since_refactor_;

      // Anti-cycling: a long run of zero-length dual steps could cycle;
      // the composite repair (Bland-guarded primal) takes over instead.
      degenerate_run =
          (best_ratio <= kTol && std::abs(dt) <= kTol)
              ? degenerate_run + 1
              : 0;
      if (degenerate_run >= kDegenerateSwitch) return DualResult::kStall;
    }
    return DualResult::kIterationLimit;
  }

  // --- Primal main loop ------------------------------------------------------

  SolveStatus iterate() {
    int degenerate_run = 0;
    Term unit;

    while (iterations_ < kMaxIterations) {
      ++iterations_;
      ++iters_since_recompute_;
      if (opt_.reference_mode) {
        refactorize();
      } else if (pivots_since_refactor_ >= kRecomputeEvery) {
        refactorize();
      } else if (iters_since_recompute_ >= kRecomputeEvery) {
        // Long bound-flip runs append no etas but still drift x.
        recompute_basics();
      }

      const bool bland = degenerate_run >= kDegenerateSwitch;
      // Bland's anti-cycling argument needs exact reduced-cost signs.
      if (bland && !d_exact_) recompute_reduced_costs();

      double enter_dir = 0.0;
      int enter = price(bland, enter_dir);
      if (enter < 0) {
        // The cached reduced costs priced out; confirm against exact ones
        // before declaring optimality.
        if (d_exact_) return SolveStatus::kOptimal;
        ++pricing_resets_;
        recompute_reduced_costs();
        enter = price(bland, enter_dir);
        if (enter < 0) return SolveStatus::kOptimal;
      }

      // FTRAN: w = B^-1 A_enter.
      std::fill(w_.begin(), w_.end(), 0.0);
      for (const Term& t : column(enter, unit)) w_[sz(t.var)] = t.coef;
      ftran(w_);

      // Ratio test. Entering var moves by t*enter_dir; basic r moves at rate
      // -enter_dir * w[r].
      double t_max = upper_[sz(enter)] - lower_[sz(enter)];  // bound flip
      int leave_row = -1;
      double leave_pivot = 0.0;
      for (int r = 0; r < m_; ++r) {
        const double rate = -enter_dir * w_[sz(r)];
        if (std::abs(rate) <= kPivotTol) continue;
        const int b = basis_[sz(r)];
        double limit;
        if (rate > 0.0) {
          if (upper_[sz(b)] == kInfinity) continue;
          limit = (upper_[sz(b)] - x_[sz(b)]) / rate;
        } else {
          limit = (x_[sz(b)] - lower_[sz(b)]) / (-rate);
        }
        limit = std::max(limit, 0.0);
        if (limit < t_max - 1e-12 ||
            (limit < t_max + 1e-12 &&
             (leave_row < 0 || std::abs(w_[sz(r)]) > std::abs(leave_pivot)))) {
          t_max = limit;
          leave_row = r;
          leave_pivot = w_[sz(r)];
        }
      }

      // Unbounded iff nothing blocks the entering direction: no basic limit
      // and no opposite bound to flip to. (t_max finite implies a blocking
      // row or a bound flip, so this single check suffices; the old second
      // leave_row < 0 branch was unreachable.)
      if (t_max == kInfinity) return SolveStatus::kUnbounded;

      degenerate_run = (t_max <= kTol) ? degenerate_run + 1 : 0;

      if (leave_row < 0) {
        // Bound flip: entering variable crosses to its other bound.
        const double step = t_max * enter_dir;
        x_[sz(enter)] += step;
        at_upper_[sz(enter)] = at_upper_[sz(enter)] ? 0 : 1;
        for (int r = 0; r < m_; ++r) {
          x_[sz(basis_[sz(r)])] -= step * w_[sz(r)];
        }
        continue;
      }

      // Pivot.
      ++pivots_;
      ++pivots_since_refactor_;
      BATE_DCHECK_MSG(std::abs(leave_pivot) > kPivotTol,
                      "simplex: pivot below tolerance");
      // Reduced-cost update needs the pivot row of the OLD basis inverse;
      // do it before the eta append changes the file. The reference mode
      // recomputes everything next iteration instead.
      if (!opt_.reference_mode) {
        update_reduced_costs(enter, leave_row, leave_pivot);
      }

      const double step = t_max * enter_dir;
      for (int r = 0; r < m_; ++r) {
        x_[sz(basis_[sz(r)])] -= step * w_[sz(r)];
      }
      const int leave = basis_[sz(leave_row)];
      const double rate = -enter_dir * leave_pivot;
      // Pin the leaving variable to the bound it reached.
      x_[sz(leave)] = (rate > 0.0) ? upper_[sz(leave)] : lower_[sz(leave)];
      at_upper_[sz(leave)] = (rate > 0.0) ? 1 : 0;
      in_basis_[sz(leave)] = 0;
      x_[sz(enter)] += step;
      in_basis_[sz(enter)] = 1;
      at_upper_[sz(enter)] = 0;
      basis_[sz(leave_row)] = enter;
      append_eta(leave_row, w_);
    }
    return SolveStatus::kIterationLimit;
  }

  Solution finish(SolveStatus status) {
    recompute_basics();
    Solution sol;
    sol.status = status;
    sol.iterations = iterations_;
    sol.pivots = pivots_;
    sol.dual_pivots = dual_pivots_;
    // Reference mode refactorizes every iteration by design; reporting
    // that would drown the fast-path signal.
    sol.refactorizations = opt_.reference_mode ? 0 : refactorizations_;
    sol.pricing_resets = pricing_resets_;
    sol.x.assign(sz(nstruct_), 0.0);
    for (int j = 0; j < nstruct_; ++j) sol.x[sz(j)] = x_[sz(j)];
    double obj = 0.0;
    for (int j = 0; j < nstruct_; ++j) obj += obj_struct_[sz(j)] * x_[sz(j)];
    const bool maximize = model_.sense() == Sense::kMaximize;
    sol.objective = maximize ? -obj : obj;

    if (status == SolveStatus::kOptimal) {
      // Duals y = c_B^T B^-1 of the internal minimization problem, mapped
      // back through the row flips and the sense negation so that each
      // dual is the shadow price d(objective)/d(rhs) in the model's sense.
      for (int r = 0; r < m_; ++r) ywork_[sz(r)] = c_[sz(basis_[sz(r)])];
      btran(ywork_);
      sol.duals.assign(sz(m_), 0.0);
      for (int i = 0; i < m_; ++i) {
        sol.duals[sz(i)] =
            ywork_[sz(i)] * row_flip_[sz(i)] * (maximize ? -1.0 : 1.0);
      }
    }
    return sol;
  }

  const Model& model_;
  SimplexOptions opt_;

  int m_ = 0;        // rows
  int nstruct_ = 0;  // structural columns
  int ncols_ = 0;    // total columns
  int first_artificial_ = 0;

  FlatSparse cols_;  // by column: (row, coef)
  FlatSparse rows_;  // by row: (column, coef)
  std::vector<double> obj_struct_;  // minimization-sense structural costs
  std::vector<double> rhs_;
  std::vector<double> row_flip_;
  std::vector<double> lower_, upper_, x_, c_;
  std::vector<char> at_upper_, in_basis_;
  std::vector<int> basis_;
  std::vector<int> art_row_;
  std::vector<double> art_sign_;

  // PFI basis representation.
  std::vector<double> base_diag_;
  std::vector<EtaHeader> etas_;
  std::vector<Term> eta_terms_;
  int pivots_since_refactor_ = 0;
  int iters_since_recompute_ = 0;

  // Cached reduced costs + pivot-row workspace.
  std::vector<double> d_;
  bool d_exact_ = false;
  std::vector<double> alpha_;
  std::vector<char> alpha_seen_;
  std::vector<int> alpha_touched_;
  int price_cursor_ = 0;

  std::vector<double> w_, rho_, ywork_;

  // Reinversion workspace: the rows each column's w_ touched, and the rows
  // and basic columns settled so far.
  std::vector<char> w_seen_;
  std::vector<int> w_touched_;
  std::vector<char> pivoted_;
  std::vector<int> new_basis_;
  std::vector<int> structural_;

  long iterations_ = 0;
  long pivots_ = 0;
  long dual_pivots_ = 0;
  long refactorizations_ = 0;
  long pricing_resets_ = 0;
  bool warm_ok_ = false;
  bool gave_up_ = false;
  RestartPath restart_path_ = RestartPath::kFallback;
};

/// The simplex proper, after presolve (or directly when presolve is off).
Solution solve_lp_core(const Model& model, const SimplexOptions& options,
                       WarmStart* warm) {
  BATE_TRACE_SPAN("solver.simplex");
  if (warm) warm->used = false;
  if (model.constraint_count() == 0) {
    // Pure bound problem: each variable sits at its best bound.
    Solution sol;
    sol.status = SolveStatus::kOptimal;
    sol.x.resize(static_cast<std::size_t>(model.variable_count()));
    double obj = 0.0;
    for (int j = 0; j < model.variable_count(); ++j) {
      const Variable& v = model.variable(j);
      const double cost =
          model.sense() == Sense::kMaximize ? -v.objective : v.objective;
      double xv = cost >= 0.0 ? v.lower : v.upper;
      if (!std::isfinite(xv)) {
        sol.status = SolveStatus::kUnbounded;
        xv = v.lower;
      }
      sol.x[static_cast<std::size_t>(j)] = xv;
      obj += v.objective * xv;
    }
    sol.objective = obj;
    if (warm) warm->basis = Basis{};  // nothing to restart from
    return sol;
  }
  // Warm restart: shape-compatible basis, not in reference mode (the
  // equivalence baseline must be byte-for-byte the pre-overhaul path).
  if (warm && !options.reference_mode && !warm->basis.empty() &&
      warm->basis.compatible_with(model)) {
    SimplexEngine engine(model, options, warm->basis);
    if (engine.warm_ok()) {
      Solution sol = engine.run_warm();
      record_restart(engine.restart_path());
      if (!engine.gave_up()) {
        warm->used = true;
        warm->basis = engine.export_basis();
        return sol;
      }
    } else {
      record_restart(RestartPath::kFallback);
    }
    // Malformed basis content or a diverged composite phase: solve cold.
  }
  SimplexEngine engine(model, options);
  Solution sol = engine.run();
  if (warm) warm->basis = engine.export_basis();
  return sol;
}

/// One registry flush per completed solve — hot loops only bump engine-
/// local counters, so enabling metrics costs a handful of relaxed atomic
/// adds per solve_lp call (DESIGN.md Sec 9 overhead budget).
void record_lp_solve(const Solution& sol, std::int64_t total_us) {
  if (!obs::enabled()) return;
  static obs::Counter& solves =
      obs::Registry::global().counter("bate_solver_solves_total");
  static obs::Counter& iterations =
      obs::Registry::global().counter("bate_solver_iterations_total");
  static obs::Counter& pivots =
      obs::Registry::global().counter("bate_solver_pivots_total");
  static obs::Counter& dual_pivots =
      obs::Registry::global().counter("bate_solver_dual_pivots_total");
  static obs::Counter& refactorizations =
      obs::Registry::global().counter("bate_solver_refactorizations_total");
  static obs::Counter& pricing_resets =
      obs::Registry::global().counter("bate_solver_pricing_resets_total");
  static obs::Histogram& solve_us =
      obs::Registry::global().histogram("bate_solver_solve_us");
  solves.inc();
  iterations.inc(sol.iterations);
  pivots.inc(sol.pivots);
  dual_pivots.inc(sol.dual_pivots);
  refactorizations.inc(sol.refactorizations);
  pricing_resets.inc(sol.pricing_resets);
  solve_us.record(total_us);
}

Solution solve_lp_impl(const Model& model, const SimplexOptions& options,
                       WarmStart* warm) {
  validate_model(model);
  // Reference mode bypasses presolve the same way it bypasses pricing and
  // warm starts: it is the pre-overhaul baseline, byte for byte.
  if (!options.presolve || options.reference_mode) {
    return solve_lp_core(model, options, warm);
  }
  const std::int64_t t0 = obs::now_us();
  PresolveResult pre = [&] {
    BATE_TRACE_SPAN("solver.presolve");
    return presolve_model(model);
  }();
  const long pus = static_cast<long>(obs::now_us() - t0);
  if (pre.infeasible) {
    Solution sol;
    sol.status = SolveStatus::kInfeasible;
    sol.x.resize(static_cast<std::size_t>(model.variable_count()));
    for (int j = 0; j < model.variable_count(); ++j) {
      sol.x[static_cast<std::size_t>(j)] = model.variable(j).lower;
    }
    sol.rows_removed = pre.stats.rows_removed;
    sol.cols_removed = pre.stats.cols_removed;
    sol.presolve_us = pus;
    if (warm) {
      // The handle must hold a full-shape basis after every solve (the
      // engine exports one even for infeasible models); with no engine run,
      // hand back the cold-start slack basis.
      warm->used = false;
      warm->basis = slack_basis(model);
    }
    return sol;
  }
  if (pre.post.trivial()) {
    Solution sol = solve_lp_core(model, options, warm);
    sol.presolve_us = pus;
    return sol;
  }
  // Warm bases live in full-model space (the external contract is
  // unchanged); translate through the reduction both ways.
  WarmStart reduced_warm;
  WarmStart* rw = nullptr;
  if (warm) {
    warm->used = false;
    if (!warm->basis.empty() && warm->basis.compatible_with(model)) {
      reduced_warm.basis = pre.post.to_reduced(warm->basis);
    }
    rw = &reduced_warm;
  }
  const Solution red = solve_lp_core(pre.reduced, options, rw);
  Solution sol = [&] {
    BATE_TRACE_SPAN("solver.postsolve");
    return pre.post.expand(model, red);
  }();
  sol.rows_removed = pre.stats.rows_removed;
  sol.cols_removed = pre.stats.cols_removed;
  sol.presolve_us = pus;
  if (warm) {
    warm->used = rw->used;
    warm->basis = pre.post.to_full(rw->basis, red.x);
  }
  return sol;
}

}  // namespace

Solution solve_lp(const Model& model, const SimplexOptions& options,
                  WarmStart* warm) {
  BATE_TRACE_SPAN("solver.solve_lp");
  const std::int64_t t0 = obs::now_us();
  Solution sol = solve_lp_impl(model, options, warm);
  record_lp_solve(sol, obs::now_us() - t0);
  return sol;
}

}  // namespace bate
