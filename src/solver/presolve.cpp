#include "solver/presolve.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"

namespace bate {

namespace {

/// The simplex declares Phase-1 infeasibility above an absolute residual of
/// 1e-6; presolve only declares infeasibility beyond the same margin
/// (rhs-scaled upward, never downward) so the two paths cannot disagree on
/// borderline instances: any violation presolve rejects is at least as large
/// as the minimal Phase-1 residual the simplex would reject too.
constexpr double kFeasEps = 1e-6;

double feas_margin(double rhs) { return kFeasEps * (1.0 + std::abs(rhs)); }

/// Reduction passes before giving up on reaching a fixed point.
constexpr int kMaxPasses = 10;

/// Drop-a-row redundancy margin: much tighter than the feasibility margin —
/// a row is only removed when every point of the bound box satisfies it.
double red_margin(double rhs) { return 1e-9 * (1.0 + std::abs(rhs)); }

/// Minimum relative improvement before a tightened bound is recorded.
bool improves_upper(double nb, double hi) {
  if (!std::isfinite(hi)) return std::isfinite(nb);
  return nb < hi - 1e-7 * (1.0 + std::abs(hi));
}
bool improves_lower(double nb, double lo) {
  return nb > lo + 1e-7 * (1.0 + std::abs(lo));
}

/// Activity bound: finite part plus the count of infinite contributions.
struct ActBound {
  double finite = 0.0;
  int inf = 0;
};

}  // namespace

/// The working state of one presolve run. Rows and columns are never
/// compacted mid-run; `row_alive_` / `var_alive_` mask them out and the
/// final `finalize()` builds the compacted reduced model.
///
/// Storage is two flat CSR arenas built once in the constructor: a row
/// arena (`tv_`/`tc_`, segment [row_start_[i], row_start_[i]+row_len_[i]))
/// whose segments shrink in place when a fixed variable is substituted out
/// (swap-with-last, order within a row is irrelevant), and a column arena
/// (`cr_`/`cc_`) listing each column's (row, coefficient) incidences. The
/// column arena is never edited: coefficients of surviving terms never
/// change (substitution only deletes the fixed variable's own term), so an
/// entry is valid exactly while its row is alive and its variable is alive.
///
/// Passes after the first are worklist-driven: a reduction marks the rows /
/// columns whose derived facts it may have changed (bound change -> the
/// column and every row it appears in; substitution -> every row of the
/// column; row drop -> every column of the row), and the next pass visits
/// only the marked set. A fact derivable from unmarked state was already
/// derived by the full first pass, so the fixed point is the same modulo
/// dominated-row pairs whose dominator shrank (deliberately not re-chased;
/// dropping fewer rows is always sound).
class Presolver {
 public:
  Presolver(const Model& model, const PresolveOptions& opt)
      : model_(model), opt_(opt) {
    n_ = model.variable_count();
    m_ = model.constraint_count();
    maximize_ = model.sense() == Sense::kMaximize;
    lo_.resize(static_cast<std::size_t>(n_));
    hi_.resize(static_cast<std::size_t>(n_));
    cmin_.resize(static_cast<std::size_t>(n_));
    integer_.assign(static_cast<std::size_t>(n_), 0);
    var_alive_.assign(static_cast<std::size_t>(n_), 1);
    for (int j = 0; j < n_; ++j) {
      const Variable& v = model.variable(j);
      lo_[idx(j)] = v.lower;
      hi_[idx(j)] = v.upper;
      cmin_[idx(j)] = maximize_ ? -v.objective : v.objective;
      integer_[idx(j)] = v.integer ? 1 : 0;
      if (opt.for_milp && v.integer) {
        lo_[idx(j)] = std::ceil(v.lower - 1e-6);
        hi_[idx(j)] = std::isfinite(v.upper) ? std::floor(v.upper + 1e-6)
                                             : v.upper;
        if (lo_[idx(j)] > hi_[idx(j)]) infeasible_ = true;
      }
    }
    rel_.resize(static_cast<std::size_t>(m_));
    rhs_.resize(static_cast<std::size_t>(m_));
    row_alive_.assign(static_cast<std::size_t>(m_), 1);
    row_start_.resize(static_cast<std::size_t>(m_) + 1);
    row_len_.resize(static_cast<std::size_t>(m_));
    col_count_.assign(static_cast<std::size_t>(n_), 0);
    std::size_t nnz = 0;
    for (int i = 0; i < m_; ++i) nnz += model.constraint(i).terms.size();
    tv_.resize(nnz);
    tc_.resize(nnz);
    int pos = 0;
    for (int i = 0; i < m_; ++i) {
      const Constraint& c = model.constraint(i);
      rel_[idx(i)] = c.relation;
      rhs_[idx(i)] = c.rhs;
      row_start_[idx(i)] = pos;
      row_len_[idx(i)] = static_cast<int>(c.terms.size());
      for (const Term& t : c.terms) {
        tv_[idx(pos)] = t.var;
        tc_[idx(pos)] = t.coef;
        ++col_count_[idx(t.var)];
        ++pos;
      }
    }
    row_start_[idx(m_)] = pos;
    col_start_.resize(static_cast<std::size_t>(n_) + 1);
    col_start_[0] = 0;
    for (int j = 0; j < n_; ++j) {
      col_start_[idx(j) + 1] = col_start_[idx(j)] + col_count_[idx(j)];
    }
    cr_.resize(nnz);
    cc_.resize(nnz);
    std::vector<int> fill(col_start_.begin(), col_start_.end() - 1);
    for (int i = 0; i < m_; ++i) {
      const int b = row_start_[idx(i)], e = b + row_len_[idx(i)];
      for (int k = b; k < e; ++k) {
        const int p = fill[idx(tv_[idx(k)])]++;
        cr_[idx(p)] = i;
        cc_[idx(p)] = tc_[idx(k)];
      }
    }
    post_.orig_vars_ = n_;
    post_.orig_rows_ = m_;
    post_.milp_ = opt.for_milp;
    post_.var_map_.assign(static_cast<std::size_t>(n_), -1);
    post_.row_map_.assign(static_cast<std::size_t>(m_), -1);
    post_.fixed_value_.assign(static_cast<std::size_t>(n_), 0.0);
    post_.fixed_status_.assign(static_cast<std::size_t>(n_),
                               VarStatus::kAtLower);
    var_stamp_.assign(static_cast<std::size_t>(n_), 0);
    var_coef_.resize(static_cast<std::size_t>(n_));
    sub_stamp_.assign(static_cast<std::size_t>(n_), 0);
    row_stamp_.assign(static_cast<std::size_t>(m_), 0);
    row_dirty_.assign(static_cast<std::size_t>(m_), 0);
    col_dirty_.assign(static_cast<std::size_t>(n_), 0);
  }

  /// Runs the passes; false means proven infeasible.
  bool run() {
    if (infeasible_) return false;
    std::vector<int> rows_now, cols_now;
    for (int pass = 0; pass < kMaxPasses; ++pass) {
      const bool full = pass == 0;
      if (!full) {
        if (next_rows_.empty() && next_cols_.empty()) break;
        rows_now.swap(next_rows_);
        cols_now.swap(next_cols_);
        next_rows_.clear();
        next_cols_.clear();
        for (int i : rows_now) row_dirty_[idx(i)] = 0;
        for (int j : cols_now) col_dirty_[idx(j)] = 0;
      }
      ++stats_.passes;
      row_scan(full, rows_now);
      if (infeasible_) return false;
      fix_fixed_vars(full, cols_now);
      if (infeasible_) return false;
      dominated_rows(full, rows_now);
      dual_fix(full, cols_now);
      if (infeasible_) return false;
      free_slack_cols(full, cols_now);
    }
    return true;
  }

  void finalize(PresolveResult& out);

  const PresolveStats& stats() const { return stats_; }

 private:
  static std::size_t idx(int i) { return static_cast<std::size_t>(i); }

  int row_begin(int i) const { return row_start_[idx(i)]; }
  int row_end(int i) const { return row_start_[idx(i)] + row_len_[idx(i)]; }

  void mark_row(int i) {
    if (row_alive_[idx(i)] && !row_dirty_[idx(i)]) {
      row_dirty_[idx(i)] = 1;
      next_rows_.push_back(i);
    }
  }
  void mark_col(int j) {
    if (var_alive_[idx(j)] && !col_dirty_[idx(j)]) {
      col_dirty_[idx(j)] = 1;
      next_cols_.push_back(j);
    }
  }
  /// A bound of column j moved: every fact derived from j's bounds (its
  /// rows' activities and redundancy, its own fixing / dual-fixing state)
  /// must be re-derived.
  void bound_changed(int j) {
    mark_col(j);
    for (int k = col_start_[idx(j)]; k < col_start_[idx(j) + 1]; ++k) {
      mark_row(cr_[idx(k)]);
    }
  }

  /// Min and max activity of a row over the current bounds, in one sweep.
  void activities(int i, ActBound& mn, ActBound& mx) const {
    for (int k = row_begin(i), e = row_end(i); k < e; ++k) {
      const double a = tc_[idx(k)];
      const int j = tv_[idx(k)];
      if (a > 0.0) {
        mn.finite += a * lo_[idx(j)];  // lower bounds are finite
        if (std::isfinite(hi_[idx(j)])) {
          mx.finite += a * hi_[idx(j)];
        } else {
          ++mx.inf;
        }
      } else {
        mx.finite += a * lo_[idx(j)];
        if (std::isfinite(hi_[idx(j)])) {
          mn.finite += a * hi_[idx(j)];
        } else {
          ++mn.inf;
        }
      }
    }
  }

  void drop_row(int i, bool record) {
    for (int k = row_begin(i), e = row_end(i); k < e; ++k) {
      --col_count_[idx(tv_[idx(k)])];
      mark_col(tv_[idx(k)]);
    }
    row_alive_[idx(i)] = 0;
    ++stats_.rows_removed;
    if (record) {
      Postsolve::Action a;
      a.kind = Postsolve::Act::kDropRow;
      a.row = i;
      post_.actions_.push_back(a);
    }
  }

  /// Deletes variable j's term from row i's segment (swap-with-last).
  void remove_term(int i, int j) {
    const int b = row_begin(i);
    int e = row_end(i);
    for (int k = b; k < e; ++k) {
      if (tv_[idx(k)] == j) {
        --e;
        tv_[idx(k)] = tv_[idx(e)];
        tc_[idx(k)] = tc_[idx(e)];
        --row_len_[idx(i)];
        return;
      }
    }
  }

  /// Substitutes variable j out at value v (clamped into its bounds) and
  /// records the action. `kind` distinguishes plain fixing (bounds met /
  /// dual fixing; dual sign-safe without a transfer) from an equality
  /// singleton row fix (postsolve transfers the reduced cost onto `row`).
  void fix_var(int j, double v, Postsolve::Act kind, int row, double coef) {
    v = std::min(std::max(v, lo_[idx(j)]), hi_[idx(j)]);
    if (opt_.for_milp && integer_[idx(j)] &&
        std::abs(v - std::round(v)) > 1e-6) {
      infeasible_ = true;
      return;
    }
    for (int k = col_start_[idx(j)]; k < col_start_[idx(j) + 1]; ++k) {
      const int i = cr_[idx(k)];
      if (!row_alive_[idx(i)]) continue;
      rhs_[idx(i)] -= cc_[idx(k)] * v;
      remove_term(i, j);
      mark_row(i);
    }
    var_alive_[idx(j)] = 0;
    col_count_[idx(j)] = 0;
    post_.fixed_value_[idx(j)] = v;
    post_.fixed_status_[idx(j)] =
        (std::isfinite(hi_[idx(j)]) && hi_[idx(j)] - v <= v - lo_[idx(j)])
            ? VarStatus::kAtUpper
            : VarStatus::kAtLower;
    post_.obj_offset_ += model_.variable(j).objective * v;
    Postsolve::Action a;
    a.kind = kind;
    a.var = j;
    a.row = row;
    a.coef = coef;
    a.new_bound = v;
    post_.actions_.push_back(a);
    ++stats_.cols_removed;
  }

  /// Bound tightening from constraint propagation; records the generating
  /// row so postsolve can transfer the bound's reduced cost onto it.
  void try_tighten(int j, bool upper, double nb, int row, double coef) {
    // Lower lifts move the simplex cold-start point (x = lower); they are
    // only worth it under branch & bound, where bound boxes prune nodes.
    if (!upper && !opt_.for_milp) return;
    if (!std::isfinite(nb) || std::abs(nb) > 1e12) return;
    if (opt_.for_milp && integer_[idx(j)]) {
      nb = upper ? std::floor(nb + 1e-6) : std::ceil(nb - 1e-6);
    }
    Postsolve::Action a;
    a.kind = Postsolve::Act::kTighten;
    a.var = j;
    a.row = row;
    a.coef = coef;
    a.at_upper = upper;
    if (upper) {
      if (!improves_upper(nb, hi_[idx(j)])) return;
      if (nb < lo_[idx(j)]) return;  // would cross: leave to the row checks
      a.new_bound = nb;
      a.old_bound = hi_[idx(j)];
      hi_[idx(j)] = nb;
    } else {
      if (!improves_lower(nb, lo_[idx(j)])) return;
      if (std::isfinite(hi_[idx(j)]) && nb > hi_[idx(j)]) return;
      a.new_bound = nb;
      a.old_bound = lo_[idx(j)];
      lo_[idx(j)] = nb;
    }
    // MILP mode never recovers duals, so the (rounded, hence no longer
    // row-binding) bound must not be transfer-eligible: drop the row link.
    if (opt_.for_milp) a.row = -1;
    post_.actions_.push_back(a);
    ++stats_.bounds_tightened;
    ++stats_.tightens;
    bound_changed(j);
  }

  void singleton_row(int i) {
    const int j = tv_[idx(row_begin(i))];
    const double a = tc_[idx(row_begin(i))];
    if (std::abs(a) < 1e-9) return;  // numerically void; leave to simplex
    const double margin_v = feas_margin(rhs_[idx(i)]) / std::abs(a);
    const double v = rhs_[idx(i)] / a;
    if (rel_[idx(i)] == Relation::kEqual) {
      if (v < lo_[idx(j)] - margin_v || v > hi_[idx(j)] + margin_v) {
        infeasible_ = true;
        return;
      }
      if (v < lo_[idx(j)] || v > hi_[idx(j)]) return;  // borderline: keep
      if (opt_.for_milp && integer_[idx(j)] &&
          std::abs(v - std::round(v)) > 1e-6) {
        infeasible_ = true;
        return;
      }
      drop_row(i, false);
      fix_var(j, v, Postsolve::Act::kFixedByRow, i, a);
      return;
    }
    const bool upper = (rel_[idx(i)] == Relation::kLessEqual) == (a > 0.0);
    double nb = v;
    if (upper) {
      if (nb < lo_[idx(j)] - margin_v) {
        infeasible_ = true;
        return;
      }
      if (opt_.for_milp && integer_[idx(j)]) {
        nb = std::floor(nb + 1e-6);
        if (nb < lo_[idx(j)] - 1e-6) {
          infeasible_ = true;  // no integer left in [lo, rhs/a]
          return;
        }
      }
      if (nb < lo_[idx(j)]) return;  // borderline: keep the row
      if (!improves_upper(nb, hi_[idx(j)])) {
        drop_row(i, true);  // implied by the existing bound
        return;
      }
      Postsolve::Action act;
      act.kind = Postsolve::Act::kSingletonRow;
      act.at_upper = true;
      act.var = j;
      act.row = opt_.for_milp ? -1 : i;
      act.coef = a;
      act.new_bound = nb;
      act.old_bound = hi_[idx(j)];
      hi_[idx(j)] = nb;
      post_.actions_.push_back(act);
      ++stats_.bounds_tightened;
      drop_row(i, false);
      bound_changed(j);
    } else {
      if (std::isfinite(hi_[idx(j)]) && nb > hi_[idx(j)] + margin_v) {
        infeasible_ = true;
        return;
      }
      if (opt_.for_milp && integer_[idx(j)]) {
        nb = std::ceil(nb - 1e-6);
        if (std::isfinite(hi_[idx(j)]) && nb > hi_[idx(j)] + 1e-6) {
          infeasible_ = true;
          return;
        }
      }
      if (std::isfinite(hi_[idx(j)]) && nb > hi_[idx(j)]) return;
      if (!improves_lower(nb, lo_[idx(j)])) {
        drop_row(i, true);
        return;
      }
      Postsolve::Action act;
      act.kind = Postsolve::Act::kSingletonRow;
      act.at_upper = false;
      act.var = j;
      act.row = opt_.for_milp ? -1 : i;
      act.coef = a;
      act.new_bound = nb;
      act.old_bound = lo_[idx(j)];
      lo_[idx(j)] = nb;
      post_.actions_.push_back(act);
      ++stats_.bounds_tightened;
      drop_row(i, false);
      bound_changed(j);
    }
  }

  void propagate(int i, const ActBound& mn, const ActBound& mx) {
    const double rhs = rhs_[idx(i)];
    const Relation rel = rel_[idx(i)];
    // try_tighten mutates bounds mid-row, which is fine (the tightened
    // bound only makes later derivations in this row weaker or equally
    // valid) — the segment itself is not edited here.
    for (int k = row_begin(i), e = row_end(i); k < e; ++k) {
      const int j = tv_[idx(k)];
      const double a = tc_[idx(k)];
      if (std::abs(a) < 1e-7) continue;
      if (rel != Relation::kGreaterEqual) {  // <= side (also = rows)
        if (a > 0.0) {
          if (mn.inf == 0) {
            const double rest = mn.finite - a * lo_[idx(j)];
            try_tighten(j, /*upper=*/true, (rhs - rest) / a, i, a);
          }
        } else {
          const bool j_inf = !std::isfinite(hi_[idx(j)]);
          if (mn.inf == (j_inf ? 1 : 0)) {
            const double rest =
                mn.finite - (j_inf ? 0.0 : a * hi_[idx(j)]);
            try_tighten(j, /*upper=*/false, (rhs - rest) / a, i, a);
          }
        }
      }
      if (rel != Relation::kLessEqual) {  // >= side (also = rows)
        if (a > 0.0) {
          const bool j_inf = !std::isfinite(hi_[idx(j)]);
          if (mx.inf == (j_inf ? 1 : 0)) {
            const double rest =
                mx.finite - (j_inf ? 0.0 : a * hi_[idx(j)]);
            try_tighten(j, /*upper=*/false, (rhs - rest) / a, i, a);
          }
        } else {
          if (mx.inf == 0) {
            const double rest = mx.finite - a * lo_[idx(j)];
            try_tighten(j, /*upper=*/true, (rhs - rest) / a, i, a);
          }
        }
      }
    }
  }

  void scan_row(int i) {
    const double rhs = rhs_[idx(i)];
    if (row_len_[idx(i)] == 0) {
      const double m = feas_margin(rhs);
      switch (rel_[idx(i)]) {
        case Relation::kLessEqual:
          if (0.0 > rhs + m) infeasible_ = true;
          break;
        case Relation::kGreaterEqual:
          if (0.0 < rhs - m) infeasible_ = true;
          break;
        case Relation::kEqual:
          if (std::abs(rhs) > m) infeasible_ = true;
          break;
      }
      if (!infeasible_) {
        drop_row(i, true);
        ++stats_.redundant_rows;
      }
      return;
    }
    if (row_len_[idx(i)] == 1) {
      const int dropped_before = stats_.rows_removed;
      singleton_row(i);
      if (stats_.rows_removed != dropped_before) ++stats_.singleton_rows;
      return;
    }
    ActBound mn, mx;
    activities(i, mn, mx);
    const double fm = feas_margin(rhs);
    const double rm = red_margin(rhs);
    bool dropped = false;
    switch (rel_[idx(i)]) {
      case Relation::kLessEqual:
        if (mn.inf == 0 && mn.finite > rhs + fm) {
          infeasible_ = true;
        } else if (mx.inf == 0 && mx.finite <= rhs + rm) {
          drop_row(i, true);
          ++stats_.redundant_rows;
          dropped = true;
        }
        break;
      case Relation::kGreaterEqual:
        if (mx.inf == 0 && mx.finite < rhs - fm) {
          infeasible_ = true;
        } else if (mn.inf == 0 && mn.finite >= rhs - rm) {
          drop_row(i, true);
          ++stats_.redundant_rows;
          dropped = true;
        }
        break;
      case Relation::kEqual:
        if ((mn.inf == 0 && mn.finite > rhs + fm) ||
            (mx.inf == 0 && mx.finite < rhs - fm)) {
          infeasible_ = true;
        } else if (mn.inf == 0 && mx.inf == 0 && mx.finite <= rhs + rm &&
                   mn.finite >= rhs - rm) {
          drop_row(i, true);
          ++stats_.redundant_rows;
          dropped = true;
        }
        break;
    }
    if (!infeasible_ && !dropped) propagate(i, mn, mx);
  }

  void row_scan(bool full, const std::vector<int>& list) {
    const int count = full ? m_ : static_cast<int>(list.size());
    for (int k = 0; k < count && !infeasible_; ++k) {
      const int i = full ? k : list[idx(k)];
      if (row_alive_[idx(i)]) scan_row(i);
    }
  }

  void fix_fixed_vars(bool full, const std::vector<int>& list) {
    const int count = full ? n_ : static_cast<int>(list.size());
    for (int k = 0; k < count && !infeasible_; ++k) {
      const int j = full ? k : list[idx(k)];
      if (!var_alive_[idx(j)]) continue;
      if (hi_[idx(j)] - lo_[idx(j)] <= 0.0) {
        fix_var(j, lo_[idx(j)], Postsolve::Act::kFixVar, -1, 0.0);
        ++stats_.fixed_vars;
      }
    }
  }

  /// Row r is dropped when another active row r1 with support(r1) subset of
  /// support(r) and a consistent coefficient ratio lambda bounds r's
  /// activity on the binding side, together with the bound extremes of r's
  /// extra variables. The dropped row gets dual 0 in postsolve: it is
  /// implied by r1 plus the bounds at drop time, both of which the final
  /// solution satisfies.
  void check_dominated(int r) {
    if (!row_alive_[idx(r)] || rel_[idx(r)] == Relation::kEqual) return;
    const int rb = row_begin(r), re = row_end(r);
    if (re - rb < 2) return;
    const bool r_le = rel_[idx(r)] == Relation::kLessEqual;
    ++var_gen_;
    for (int k = rb; k < re; ++k) {
      var_stamp_[idx(tv_[idx(k)])] = var_gen_;
      var_coef_[idx(tv_[idx(k)])] = tc_[idx(k)];
    }
    ++row_gen_;
    row_stamp_[idx(r)] = row_gen_;  // never dominate a row with itself
    // Candidate dominators are searched through the two sparsest columns
    // of r only: a dominator's support lies inside r's, so it appears in
    // some column of r, and sparse columns have the best hit rate per
    // entry visited. (One column is not enough: a column unique to r -
    // e.g. a pattern variable appearing in nothing but r and one other row
    // - is the sparsest yet can never contain a dominator.) Dominators
    // avoiding both probed columns are missed - an acceptable trade
    // (fewer drops is always sound) that makes the scan O(two columns)
    // instead of O(sum of all columns).
    int s0 = tv_[idx(rb)], s1 = -1;
    for (int k = rb + 1; k < re; ++k) {
      const int v = tv_[idx(k)];
      if (col_count_[idx(v)] < col_count_[idx(s0)]) {
        s1 = s0;
        s0 = v;
      } else if (s1 < 0 || col_count_[idx(v)] < col_count_[idx(s1)]) {
        s1 = v;
      }
    }
    int budget = 64;
    for (const int seed : {s0, s1}) {
      if (seed < 0 || budget <= 0) continue;
      for (int p = col_start_[idx(seed)]; p < col_start_[idx(seed) + 1];
           ++p) {
        if (--budget <= 0) break;
        const int r1 = cr_[idx(p)];
        if (!row_alive_[idx(r1)] || row_stamp_[idx(r1)] == row_gen_) {
          continue;
        }
        row_stamp_[idx(r1)] = row_gen_;
        const int b1 = row_begin(r1), e1 = row_end(r1);
        if (b1 == e1 || e1 - b1 > re - rb) continue;
        if (var_stamp_[idx(tv_[idx(b1)])] != var_gen_) continue;
        const double lambda = var_coef_[idx(tv_[idx(b1)])] / tc_[idx(b1)];
        if (std::abs(lambda) < 1e-12) continue;
        const Relation rel1 = rel_[idx(r1)];
        const bool admissible =
            r_le ? ((lambda > 0.0 && rel1 != Relation::kGreaterEqual) ||
                    (lambda < 0.0 && rel1 != Relation::kLessEqual))
                 : ((lambda > 0.0 && rel1 != Relation::kLessEqual) ||
                    (lambda < 0.0 && rel1 != Relation::kGreaterEqual));
        if (!admissible) continue;
        bool ratio_ok = true;
        ++sub_gen_;
        for (int q = b1; q < e1; ++q) {
          const int v1 = tv_[idx(q)];
          if (var_stamp_[idx(v1)] != var_gen_ ||
              std::abs(var_coef_[idx(v1)] - lambda * tc_[idx(q)]) >
                  1e-9 * (1.0 + std::abs(var_coef_[idx(v1)]))) {
            ratio_ok = false;
            break;
          }
          sub_stamp_[idx(v1)] = sub_gen_;
        }
        if (!ratio_ok) continue;
        // Extreme contribution of r's variables outside r1.
        double extras = 0.0;
        bool finite = true;
        for (int q = rb; q < re; ++q) {
          const int v = tv_[idx(q)];
          if (sub_stamp_[idx(v)] == sub_gen_) continue;
          const double a = tc_[idx(q)];
          const double up = hi_[idx(v)];
          if (r_le ? a > 0.0 : a < 0.0) {
            if (!std::isfinite(up)) {
              finite = false;
              break;
            }
            extras += a * up;
          } else {
            extras += a * lo_[idx(v)];
          }
        }
        if (!finite) continue;
        const double bound = lambda * rhs_[idx(r1)] + extras;
        const double rm = red_margin(rhs_[idx(r)]);
        if (r_le ? bound <= rhs_[idx(r)] + rm
                 : bound >= rhs_[idx(r)] - rm) {
          drop_row(r, true);
          ++stats_.dominated_rows;
          return;
        }
      }
    }
  }

  void dominated_rows(bool full, const std::vector<int>& list) {
    const int count = full ? m_ : static_cast<int>(list.size());
    for (int k = 0; k < count; ++k) {
      check_dominated(full ? k : list[idx(k)]);
    }
  }

  /// Dual fixing: when the objective and every active row push a variable
  /// toward the same finite bound, fix it there. Valid for MILPs too (the
  /// move to the bound is feasibility- and cost-monotone, and integer
  /// bounds are integral after the entry rounding). Empty columns are the
  /// vacuous case. Variables in equality rows are skipped.
  void dual_fix(bool full, const std::vector<int>& list) {
    const int count = full ? n_ : static_cast<int>(list.size());
    for (int k = 0; k < count && !infeasible_; ++k) {
      const int j = full ? k : list[idx(k)];
      if (!var_alive_[idx(j)]) continue;
      bool can_lo = cmin_[idx(j)] >= 0.0;
      bool can_hi = cmin_[idx(j)] <= 0.0 && std::isfinite(hi_[idx(j)]);
      if (!can_lo && !can_hi) continue;
      for (int p = col_start_[idx(j)]; p < col_start_[idx(j) + 1]; ++p) {
        const int i = cr_[idx(p)];
        if (!row_alive_[idx(i)]) continue;
        if (rel_[idx(i)] == Relation::kEqual) {
          can_lo = can_hi = false;
          break;
        }
        const double a = cc_[idx(p)];
        const bool le = rel_[idx(i)] == Relation::kLessEqual;
        if (le ? a < 0.0 : a > 0.0) can_lo = false;
        if (le ? a > 0.0 : a < 0.0) can_hi = false;
        if (!can_lo && !can_hi) break;
      }
      if (can_lo) {
        fix_var(j, lo_[idx(j)], Postsolve::Act::kFixVar, -1, 0.0);
        ++stats_.dual_fixed_vars;
      } else if (can_hi) {
        fix_var(j, hi_[idx(j)], Postsolve::Act::kFixVar, -1, 0.0);
        ++stats_.dual_fixed_vars;
      }
    }
  }

  /// A zero-cost continuous column with an infinite upper bound appearing
  /// in exactly one inequality row, oriented so that growing the variable
  /// relaxes the row, absorbs that row entirely: postsolve sets
  /// x = max(lo, (rhs - rest)/a), which satisfies the row at zero cost.
  void free_slack_cols(bool full, const std::vector<int>& list) {
    const int count = full ? n_ : static_cast<int>(list.size());
    for (int k = 0; k < count; ++k) {
      const int j = full ? k : list[idx(k)];
      if (!var_alive_[idx(j)] || col_count_[idx(j)] != 1) continue;
      if (cmin_[idx(j)] != 0.0 || std::isfinite(hi_[idx(j)])) continue;
      if (integer_[idx(j)]) continue;
      int row = -1;
      double a = 0.0;
      for (int p = col_start_[idx(j)]; p < col_start_[idx(j) + 1]; ++p) {
        if (row_alive_[idx(cr_[idx(p)])]) {
          row = cr_[idx(p)];
          a = cc_[idx(p)];
          break;
        }
      }
      if (row < 0 || rel_[idx(row)] == Relation::kEqual) continue;
      const bool absorbs = rel_[idx(row)] == Relation::kLessEqual ? a < 0.0
                                                                  : a > 0.0;
      if (!absorbs || std::abs(a) < 1e-9) continue;
      Postsolve::Action act;
      act.kind = Postsolve::Act::kFreeSlack;
      act.var = j;
      act.row = row;
      act.coef = a;
      act.lo_at_drop = lo_[idx(j)];
      post_.actions_.push_back(act);
      drop_row(row, false);
      var_alive_[idx(j)] = 0;
      col_count_[idx(j)] = 0;
      post_.fixed_value_[idx(j)] = lo_[idx(j)];  // overwritten by postsolve
      post_.fixed_status_[idx(j)] = VarStatus::kAtLower;
      ++stats_.cols_removed;
      ++stats_.free_slack_cols;
    }
  }

  const Model& model_;
  const PresolveOptions& opt_;
  int n_ = 0, m_ = 0;
  bool maximize_ = false;
  bool infeasible_ = false;
  std::vector<double> lo_, hi_, cmin_;
  std::vector<char> integer_, var_alive_, row_alive_;
  // Row arena (segments shrink in place) + immutable column arena.
  std::vector<int> tv_, row_start_, row_len_;
  std::vector<double> tc_;
  std::vector<int> cr_, col_start_, col_count_;
  std::vector<double> cc_;
  std::vector<Relation> rel_;
  std::vector<double> rhs_;
  Postsolve post_;
  PresolveStats stats_;
  // Worklists for the passes after the first.
  std::vector<char> row_dirty_, col_dirty_;
  std::vector<int> next_rows_, next_cols_;
  // Dominance scratch (generation-stamped to avoid per-row clears).
  std::vector<int> var_stamp_, sub_stamp_, row_stamp_;
  std::vector<double> var_coef_;
  int var_gen_ = 0, sub_gen_ = 0, row_gen_ = 0;
};

void Presolver::finalize(PresolveResult& out) {
  // Compaction maps.
  int live_vars = 0, live_rows = 0;
  for (int j = 0; j < n_; ++j) live_vars += var_alive_[idx(j)];
  for (int i = 0; i < m_; ++i) live_rows += row_alive_[idx(i)];
  post_.red_var_.reserve(static_cast<std::size_t>(live_vars));
  post_.red_row_.reserve(static_cast<std::size_t>(live_rows));
  for (int j = 0; j < n_; ++j) {
    if (!var_alive_[idx(j)]) continue;
    post_.var_map_[idx(j)] = static_cast<int>(post_.red_var_.size());
    post_.red_var_.push_back(j);
  }
  for (int i = 0; i < m_; ++i) {
    if (!row_alive_[idx(i)]) continue;
    post_.row_map_[idx(i)] = static_cast<int>(post_.red_row_.size());
    post_.red_row_.push_back(i);
  }
  const int nr = static_cast<int>(post_.red_var_.size());
  const int mr = static_cast<int>(post_.red_row_.size());

  // Build the reduced model. Variable names are not carried over: the
  // reduced model is solver-internal and postsolve maps by index.
  Model red;
  red.set_sense(model_.sense());
  post_.red_lo_.reserve(static_cast<std::size_t>(nr));
  post_.red_hi_.reserve(static_cast<std::size_t>(nr));
  for (int jr = 0; jr < nr; ++jr) {
    const int j = post_.red_var_[idx(jr)];
    const Variable& v = model_.variable(j);
    red.add_variable(lo_[idx(j)], hi_[idx(j)], v.objective);
    if (v.integer) red.set_integer(jr);
    post_.red_lo_.push_back(lo_[idx(j)]);
    post_.red_hi_.push_back(hi_[idx(j)]);
  }
  for (int ir = 0; ir < mr; ++ir) {
    const int i = post_.red_row_[idx(ir)];
    std::vector<Term> terms;
    terms.reserve(static_cast<std::size_t>(row_len_[idx(i)]));
    for (int k = row_begin(i), e = row_end(i); k < e; ++k) {
      terms.push_back({post_.var_map_[idx(tv_[idx(k)])], tc_[idx(k)]});
    }
    red.add_constraint(std::move(terms), rel_[idx(i)], rhs_[idx(i)]);
  }
  out.reduced = std::move(red);
  out.post = std::move(post_);
  out.stats = stats_;
}

namespace {

/// One registry flush per presolve run (never inside the rule loops).
void record_presolve(const PresolveStats& s, bool infeasible) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  static obs::Counter& runs = reg.counter("bate_presolve_runs_total");
  static obs::Counter& passes = reg.counter("bate_presolve_passes_total");
  static obs::Counter& rows = reg.counter("bate_presolve_rows_removed_total");
  static obs::Counter& cols = reg.counter("bate_presolve_cols_removed_total");
  static obs::Counter& bounds =
      reg.counter("bate_presolve_bounds_tightened_total");
  static obs::Counter& redundant =
      reg.counter("bate_presolve_redundant_rows_total");
  static obs::Counter& singleton =
      reg.counter("bate_presolve_singleton_rows_total");
  static obs::Counter& dominated =
      reg.counter("bate_presolve_dominated_rows_total");
  static obs::Counter& fixed = reg.counter("bate_presolve_fixed_vars_total");
  static obs::Counter& dual_fixed =
      reg.counter("bate_presolve_dual_fixed_vars_total");
  static obs::Counter& free_slack =
      reg.counter("bate_presolve_free_slack_cols_total");
  static obs::Counter& tightens = reg.counter("bate_presolve_tightens_total");
  static obs::Counter& infeas =
      reg.counter("bate_presolve_infeasible_total");
  runs.inc();
  passes.inc(s.passes);
  rows.inc(s.rows_removed);
  cols.inc(s.cols_removed);
  bounds.inc(s.bounds_tightened);
  redundant.inc(s.redundant_rows);
  singleton.inc(s.singleton_rows);
  dominated.inc(s.dominated_rows);
  fixed.inc(s.fixed_vars);
  dual_fixed.inc(s.dual_fixed_vars);
  free_slack.inc(s.free_slack_cols);
  tightens.inc(s.tightens);
  if (infeasible) infeas.inc();
}

}  // namespace

PresolveResult presolve_model(const Model& model,
                              const PresolveOptions& options) {
  PresolveResult out;
  Presolver p(model, options);
  if (!p.run()) {
    out.infeasible = true;
    out.stats = p.stats();
    record_presolve(out.stats, /*infeasible=*/true);
    return out;
  }
  p.finalize(out);
  record_presolve(out.stats, /*infeasible=*/false);
  return out;
}

Basis slack_basis(const Model& model) {
  const int n = model.variable_count();
  const int m = model.constraint_count();
  Basis b;
  b.structural_count = n;
  b.constraint_count = m;
  b.basic.resize(static_cast<std::size_t>(m));
  b.status.assign(static_cast<std::size_t>(n + m), VarStatus::kAtLower);
  for (int i = 0; i < m; ++i) {
    b.basic[static_cast<std::size_t>(i)] = n + i;
    b.status[static_cast<std::size_t>(n + i)] = VarStatus::kBasic;
  }
  return b;
}

// ---- Postsolve -----------------------------------------------------------

Solution Postsolve::expand(const Model& original,
                           const Solution& reduced) const {
  BATE_DCHECK_MSG(original.variable_count() == orig_vars_ &&
                      original.constraint_count() == orig_rows_,
                  "postsolve: model is not the one presolved");
  Solution out;
  out.status = reduced.status;
  out.iterations = reduced.iterations;
  out.pivots = reduced.pivots;
  out.dual_pivots = reduced.dual_pivots;
  out.refactorizations = reduced.refactorizations;
  out.pricing_resets = reduced.pricing_resets;
  out.nodes = reduced.nodes;
  const std::size_t n = static_cast<std::size_t>(orig_vars_);
  const std::size_t m = static_cast<std::size_t>(orig_rows_);

  // Primal: kept columns map back by index, removed columns take their
  // recorded values, free-slack columns re-absorb their row's residual in
  // reverse removal order (later removals have values by then).
  out.x.assign(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    if (var_map_[j] < 0) out.x[j] = fixed_value_[j];
  }
  for (std::size_t jr = 0; jr < red_var_.size(); ++jr) {
    out.x[static_cast<std::size_t>(red_var_[jr])] =
        jr < reduced.x.size() ? reduced.x[jr] : red_lo_[jr];
  }
  for (auto it = actions_.rbegin(); it != actions_.rend(); ++it) {
    if (it->kind != Act::kFreeSlack) continue;
    const Constraint& c = original.constraint(it->row);
    double rest = 0.0;
    for (const Term& t : c.terms) {
      if (t.var != it->var) rest += t.coef * out.x[static_cast<std::size_t>(t.var)];
    }
    out.x[static_cast<std::size_t>(it->var)] =
        std::max(it->lo_at_drop, (c.rhs - rest) / it->coef);
  }
  out.objective = reduced.objective + obj_offset_;

  // Duals: only recovered for LP solves that produced them (branch & bound
  // returns none, matching the Solution contract).
  const bool has_duals = !milp_ &&
                         reduced.duals.size() == red_row_.size() &&
                         reduced.status == SolveStatus::kOptimal;
  if (!has_duals) return out;

  const bool maximize = original.sense() == Sense::kMaximize;
  // Everything below works in minimization sense; convert on the way out.
  std::vector<double> y(m, 0.0);
  for (std::size_t ir = 0; ir < red_row_.size(); ++ir) {
    const double ym = reduced.duals[ir];  // model sense
    y[static_cast<std::size_t>(red_row_[ir])] = maximize ? -ym : ym;
  }
  std::vector<double> d(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double c = original.variable(static_cast<int>(j)).objective;
    d[j] = maximize ? -c : c;
  }
  for (std::size_t i = 0; i < m; ++i) {
    if (y[i] == 0.0) continue;
    for (const Term& t : original.constraint(static_cast<int>(i)).terms) {
      d[static_cast<std::size_t>(t.var)] -= y[i] * t.coef;
    }
  }
  // Reverse transfer walk: a removed bound whose variable ended pinned at it
  // moves the variable's remaining reduced cost onto the generating row
  // (the trigger implies the row is binding and the transfer sign matches
  // the row's dual sign; see DESIGN.md Sec 5 "Presolve & postsolve").
  auto transfer = [&](const Action& a) {
    const double mu = d[static_cast<std::size_t>(a.var)] / a.coef;
    y[static_cast<std::size_t>(a.row)] += mu;
    for (const Term& t : original.constraint(a.row).terms) {
      d[static_cast<std::size_t>(t.var)] -= mu * t.coef;
    }
  };
  for (auto it = actions_.rbegin(); it != actions_.rend(); ++it) {
    switch (it->kind) {
      case Act::kFixedByRow:
        if (std::abs(d[static_cast<std::size_t>(it->var)]) > 1e-12) {
          transfer(*it);  // equality row: dual sign free, always valid
        }
        break;
      case Act::kSingletonRow:
      case Act::kTighten: {
        if (it->row < 0) break;
        const double dv = d[static_cast<std::size_t>(it->var)];
        if (std::abs(dv) <= 1e-9) break;
        const bool pinned = it->at_upper ? dv < 0.0 : dv > 0.0;
        const double xv = out.x[static_cast<std::size_t>(it->var)];
        const bool at_bound =
            std::abs(xv - it->new_bound) <=
            1e-6 * (1.0 + std::abs(it->new_bound));
        if (pinned && at_bound) transfer(*it);
        break;
      }
      case Act::kFixVar:
      case Act::kDropRow:
      case Act::kFreeSlack:
        break;
    }
  }
  out.duals.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    out.duals[i] = maximize ? -y[i] : y[i];
  }
  return out;
}

Basis Postsolve::to_full(const Basis& reduced,
                         const std::vector<double>& reduced_x) const {
  const int n = orig_vars_;
  const int m = orig_rows_;
  const int nr = static_cast<int>(red_var_.size());
  const int mr = static_cast<int>(red_row_.size());
  Basis full;
  full.structural_count = n;
  full.constraint_count = m;
  full.basic.assign(static_cast<std::size_t>(m), -1);
  full.status.assign(static_cast<std::size_t>(n + m), VarStatus::kAtLower);
  for (int j = 0; j < n; ++j) {
    if (var_map_[static_cast<std::size_t>(j)] < 0) {
      full.status[static_cast<std::size_t>(j)] =
          fixed_status_[static_cast<std::size_t>(j)];
    }
  }
  const bool usable = !reduced.empty() && reduced.structural_count == nr &&
                      reduced.constraint_count == mr;
  if (usable) {
    for (int jr = 0; jr < nr; ++jr) {
      full.status[static_cast<std::size_t>(red_var_[static_cast<std::size_t>(jr)])] =
          reduced.status[static_cast<std::size_t>(jr)];
    }
    for (int ir = 0; ir < mr; ++ir) {
      const int i = red_row_[static_cast<std::size_t>(ir)];
      full.status[static_cast<std::size_t>(n + i)] =
          reduced.status[static_cast<std::size_t>(nr + ir)];
      const int bc = reduced.basic[static_cast<std::size_t>(ir)];
      int mapped = -1;
      if (bc >= 0 && bc < nr) {
        mapped = red_var_[static_cast<std::size_t>(bc)];
      } else if (bc >= nr && bc < nr + mr) {
        mapped = n + red_row_[static_cast<std::size_t>(bc - nr)];
      }
      if (mapped >= 0) full.basic[static_cast<std::size_t>(i)] = mapped;
    }
  } else {
    // No reduced basis (e.g. the reduced model had no rows and solved on
    // bounds alone): synthesize nonbasic statuses from the reduced point.
    for (int jr = 0; jr < nr; ++jr) {
      const std::size_t sjr = static_cast<std::size_t>(jr);
      VarStatus st = VarStatus::kAtLower;
      if (sjr < reduced_x.size() && std::isfinite(red_hi_[sjr]) &&
          std::abs(reduced_x[sjr] - red_hi_[sjr]) <=
              std::abs(reduced_x[sjr] - red_lo_[sjr])) {
        st = VarStatus::kAtUpper;
      }
      full.status[static_cast<std::size_t>(red_var_[sjr])] = st;
    }
  }
  // Removed rows take their own slack: the slack columns are unit vectors
  // in rows no kept basic column occupies, so the full basis is block
  // triangular over the kept basis and always nonsingular.
  for (int i = 0; i < m; ++i) {
    if (full.basic[static_cast<std::size_t>(i)] < 0) {
      full.basic[static_cast<std::size_t>(i)] = n + i;
      full.status[static_cast<std::size_t>(n + i)] = VarStatus::kBasic;
    }
  }
  return full;
}

Basis Postsolve::to_reduced(const Basis& full) const {
  const int n = orig_vars_;
  const int m = orig_rows_;
  const int nr = static_cast<int>(red_var_.size());
  const int mr = static_cast<int>(red_row_.size());
  if (full.structural_count != n || full.constraint_count != m ||
      static_cast<int>(full.basic.size()) != m ||
      static_cast<int>(full.status.size()) != n + m) {
    return Basis{};
  }
  Basis red;
  red.structural_count = nr;
  red.constraint_count = mr;
  red.basic.assign(static_cast<std::size_t>(mr), -1);
  red.status.assign(static_cast<std::size_t>(nr + mr), VarStatus::kAtLower);
  for (int j = 0; j < n; ++j) {
    const int jr = var_map_[static_cast<std::size_t>(j)];
    if (jr >= 0) {
      red.status[static_cast<std::size_t>(jr)] =
          full.status[static_cast<std::size_t>(j)];
    }
  }
  for (int i = 0; i < m; ++i) {
    const int ir = row_map_[static_cast<std::size_t>(i)];
    if (ir < 0) continue;
    red.status[static_cast<std::size_t>(nr + ir)] =
        full.status[static_cast<std::size_t>(n + i)];
    const int bc = full.basic[static_cast<std::size_t>(i)];
    int mapped = -1;
    if (bc >= 0 && bc < n) {
      mapped = var_map_[static_cast<std::size_t>(bc)];
    } else if (bc >= n && bc < n + m) {
      const int rm = row_map_[static_cast<std::size_t>(bc - n)];
      if (rm >= 0) mapped = nr + rm;
    }
    if (mapped >= 0) red.basic[static_cast<std::size_t>(ir)] = mapped;
  }
  // Rows whose full basic column was presolved away restart on their own
  // slack. A duplicate with a slack already basic elsewhere is caught by
  // the warm-start install and falls back cold — correctness is unaffected.
  for (int ir = 0; ir < mr; ++ir) {
    if (red.basic[static_cast<std::size_t>(ir)] < 0) {
      red.basic[static_cast<std::size_t>(ir)] = nr + ir;
      red.status[static_cast<std::size_t>(nr + ir)] = VarStatus::kBasic;
    }
  }
  return red;
}

}  // namespace bate
