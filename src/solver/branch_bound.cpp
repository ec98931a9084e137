#include "solver/branch_bound.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/cuts.h"
#include "solver/presolve.h"
#include "util/check.h"

namespace bate {

namespace {

// Search tuning: fixed values every solve uses (no caller tunes them).
constexpr double kIntegerTol = 1e-6;
static_assert(kIntegerTol > 0.0 && kIntegerTol < 0.5,
              "branch_bound: integer tolerance outside (0, 0.5)");
/// A popped node whose bound is within this of the incumbent is pruned.
constexpr double kGapTol = 1e-9;
/// Seeds the position-derived node tie-break keys (equal-bound nodes are
/// popped in seeded key order, never in insertion order).
constexpr std::uint64_t kTieBreakSeed = 0;
/// Root cut-and-resolve loop (Gomory + cover, solver/cuts.h): separation
/// rounds at the root, and total cut rows accepted across all rounds.
constexpr int kMaxCutRounds = 8;
constexpr int kMaxCuts = 64;
/// Tail-off guard: stop the cut loop when a round improves the root bound
/// by less than this (relative to max(1, |bound|)). Rounds that barely move
/// the bound still pay for their rows in EVERY node re-solve below the
/// root, so cutting deep into the tail is a net loss (the recovery MILPs
/// regressed 2.5x in warm latency before this guard).
constexpr double kMinCutImprovement = 1e-4;
/// Structural gate: skip the cut loop entirely when integer columns make up
/// less than this fraction of the (presolved) model. GMI cuts derived from
/// rows dominated by continuous columns carry almost no rounding strength,
/// and cover cuts need all-binary rows; on the recovery MILPs (~0.32
/// integer share) the cut loop moved the root bound but grew the tree and
/// taxed every re-solve, while the admission MILPs (~0.78) are where the
/// order-of-magnitude node drops come from (EXPERIMENTS.md).
constexpr double kMinCutIntegerShare = 0.5;
/// Fractional root candidates probed by strong branching (two warm child
/// LPs each) to seed the pseudo-cost tables.
constexpr int kStrongBranchCandidates = 4;

/// splitmix64 finalizer. Node tie keys are derived from the parent's key
/// and the branch direction, so a node's key depends only on its position
/// in the tree (and the seed) — never on scheduling or insertion order.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One open node: a single bound delta against the parent; the node's full
/// bound set is its chain to the root. Children share the parent
/// relaxation's final basis (one heap copy per expanded node, not per
/// child) for warm starts.
struct Node {
  std::shared_ptr<const Node> parent;
  std::shared_ptr<const Basis> warm;  // parent relaxation's final basis
  double lp_bound = -kInfinity;       // parent bound (minimization sense)
  std::uint64_t tie = 0;              // deterministic order tie-break key
  double lower = 0.0;                 // the delta: var's bounds at this node
  double upper = 0.0;
  /// Signed pseudo-cost step of the branch that created this node: +f for
  /// the down child, -(1 - f) for the up child (f = parent fractionality of
  /// `var`). The observed bound degradation divided by |pc_step| is this
  /// branch's per-unit pseudo-cost sample; the sign encodes the direction.
  double pc_step = 0.0;
  int var = -1;                       // -1: root (no delta)
  int depth = 0;
};

// A node must stay one flat bound delta — no per-node containers. If this
// fires, someone re-introduced accumulated bound copies (the pre-PR 3 Node
// duplicated the whole path's bound vector into every child).
static_assert(sizeof(Node) <= 2 * sizeof(std::shared_ptr<const Node>) + 48,
              "branch_bound: Node grew past a single bound delta");

struct NodeOrder {
  bool operator()(const std::shared_ptr<const Node>& a,
                  const std::shared_ptr<const Node>& b) const {
    if (a->lp_bound != b->lp_bound) {
      return a->lp_bound > b->lp_bound;  // best (smallest) bound first
    }
    return a->tie > b->tie;  // seeded, position-derived: deterministic
  }
};

using OpenQueue =
    std::priority_queue<std::shared_ptr<const Node>,
                        std::vector<std::shared_ptr<const Node>>, NodeOrder>;

/// Root pseudo-cost tables, frozen before the tree search starts (strong
/// branching fills them; `fallback` covers never-probed variables). During
/// the search they are refined per node with the observations along that
/// node's own ancestor chain — never with cross-tree state — so a branching
/// decision is a pure function of tree position.
struct PseudoCosts {
  bool active = false;
  double fallback = 1.0;            // per-unit degradation when unobserved
  std::vector<double> down_sum, up_sum;
  std::vector<int> down_n, up_n;

  void init(int vars) {
    active = true;
    down_sum.assign(static_cast<std::size_t>(vars), 0.0);
    up_sum.assign(static_cast<std::size_t>(vars), 0.0);
    down_n.assign(static_cast<std::size_t>(vars), 0);
    up_n.assign(static_cast<std::size_t>(vars), 0);
  }
  void observe(int var, bool down, double per_unit) {
    const auto j = static_cast<std::size_t>(var);
    (down ? down_sum : up_sum)[j] += per_unit;
    ++(down ? down_n : up_n)[j];
  }
};

/// Immutable per-search context.
struct Search {
  const Model& model;
  const BranchBoundOptions& opt;
  bool maximize;
  std::vector<int> int_vars;
  std::int64_t start_us;  // obs::now_us() when the search began
  PseudoCosts pc;
  /// Root relaxation already solved by prepare_root on the search model
  /// (final cut rows and probe-proven bounds included), with work counters
  /// zeroed (the prep pass accounts its own LP work). The root expansion
  /// adopts it instead of re-solving from the very basis that produced it.
  const Solution* root_relax = nullptr;

  double to_min(double v) const { return maximize ? -v : v; }
  bool out_of_time() const {
    if (opt.time_limit_seconds <= 0.0) return false;
    return static_cast<double>(obs::now_us() - start_us) * 1e-6 >
           opt.time_limit_seconds;
  }
};

/// Everything one node expansion produces; run_tree merges it into the
/// search state.
struct Expansion {
  Solution relax;
  double bound_min = kInfinity;
  bool warm_used = false;
  bool integer_feasible = false;
  bool pc_branched = false;  // branching variable chosen by pseudo-cost score
  long deltas = 0;
  std::vector<std::shared_ptr<const Node>> children;
};

/// What the root preparation pass (cuts + strong branching) hands the tree
/// search: the final root basis on the (possibly cut-augmented) model, and
/// the LP work it spent, folded into the returned solution's totals.
struct RootPrep {
  Basis basis;
  /// The final root relaxation on the prepared model (kOptimal only when
  /// the root solved cleanly); `basis` is exactly its final basis.
  Solution relax;
  long iters = 0;
  long pivots = 0;
  long dual_pivots = 0;
};

/// Runs the root cut-and-resolve loop and strong branching on `work` (the
/// search's private model copy — cut rows are appended to it, and bounds
/// proven impossible by a one-sided infeasible probe are tightened in
/// place). `root_warm`, when set, seeds the first root solve and receives
/// that solve's basis back immediately — before any cut row lands — so the
/// caller's handle keeps the pre-cut shape its postsolve mapping expects.
RootPrep prepare_root(Model& work, const SimplexOptions& lp,
                      const std::vector<int>& int_vars, bool maximize,
                      WarmStart* root_warm, BranchBoundStats& st,
                      PseudoCosts& pc) {
  BATE_TRACE_SPAN("solver.bnb_root_prep");
  RootPrep prep;
  const auto to_min = [maximize](double v) { return maximize ? -v : v; };

  WarmStart root_basis;  // warm-start handle chained through every re-solve
  if (root_warm != nullptr && !root_warm->basis.empty() &&
      root_warm->basis.compatible_with(work)) {
    root_basis.basis = root_warm->basis;
  }
  Solution relax = solve_lp(work, lp, &root_basis);
  prep.iters += relax.iterations;
  prep.pivots += relax.pivots;
  prep.dual_pivots += relax.dual_pivots;
  if (root_warm != nullptr) {
    root_warm->basis = root_basis.basis;
    root_warm->used = root_basis.used;
  }
  if (relax.status != SolveStatus::kOptimal) {
    // Infeasible / unbounded / limit roots: nothing to cut or probe. The
    // root node of run_tree re-solves and reports the verdict as before.
    prep.basis = std::move(root_basis.basis);
    prep.relax = std::move(relax);
    return prep;
  }

  const auto fractionality = [&](int j) {
    const double v = relax.x[static_cast<std::size_t>(j)];
    return std::abs(v - std::round(v));
  };
  const auto has_fractional = [&] {
    for (int j : int_vars) {
      if (fractionality(j) > kIntegerTol) return true;
    }
    return false;
  };

  const double integer_share =
      work.variable_count() > 0
          ? static_cast<double>(int_vars.size()) /
                static_cast<double>(work.variable_count())
          : 0.0;
  if (work.constraint_count() > 0 && integer_share >= kMinCutIntegerShare) {
    CutOptions copt;
    copt.integer_tol = kIntegerTol;
    CutPool cut_pool(kMaxCuts, copt.min_violation, 0.95);
    double bound_min = to_min(relax.objective);
    for (int round = 0; round < kMaxCutRounds; ++round) {
      if (!has_fractional()) break;  // integral root: cuts have no target
      long gomory = 0;
      long cover = 0;
      for (Cut& cut : separate_gomory(work, root_basis.basis, relax.x, copt)) {
        if (cut_pool.add(std::move(cut))) ++gomory;
      }
      for (Cut& cut : separate_cover(work, relax.x, copt)) {
        if (cut_pool.add(std::move(cut))) ++cover;
      }
      std::vector<Cut> fresh = cut_pool.drain();
      if (fresh.empty()) break;
      // Append the accepted rows and extend the basis with their slacks
      // basic: the new slacks are negative at the separating point (the cut
      // is violated there), so the re-solve below is exactly the
      // primal-infeasible / dual-feasible case the dual simplex serves.
      for (const Cut& cut : fresh) {
        work.add_constraint(cut.terms, cut.relation, cut.rhs);
        const int row = work.constraint_count() - 1;
        root_basis.basis.basic.push_back(work.variable_count() + row);
        root_basis.basis.status.push_back(VarStatus::kBasic);
        root_basis.basis.constraint_count = work.constraint_count();
      }
      st.gomory_cuts += gomory;
      st.cover_cuts += cover;
      ++st.cut_rounds;
      relax = solve_lp(work, lp, &root_basis);
      prep.iters += relax.iterations;
      prep.pivots += relax.pivots;
      prep.dual_pivots += relax.dual_pivots;
      if (relax.status != SolveStatus::kOptimal) break;
      // Tail-off: a round that barely moved the bound predicts the next
      // one won't either, and its rows tax every node re-solve below.
      const double new_bound = to_min(relax.objective);
      const double gain = new_bound - bound_min;
      bound_min = new_bound;
      if (gain < kMinCutImprovement * std::max(1.0, std::abs(bound_min))) {
        break;
      }
    }
  }

  if (relax.status == SolveStatus::kOptimal) {
    pc.init(work.variable_count());
    // Probe the most fractional candidates with one warm child solve per
    // direction; a one-sided infeasible probe proves the complementary
    // bound for every feasible point and tightens the root in place.
    std::vector<int> candidates;
    for (int j : int_vars) {
      if (fractionality(j) > kIntegerTol) candidates.push_back(j);
    }
    std::sort(candidates.begin(), candidates.end(), [&](int a, int b) {
      const double fa = fractionality(a);
      const double fb = fractionality(b);
      if (fa != fb) return fa > fb;
      return a < b;
    });
    if (static_cast<int>(candidates.size()) > kStrongBranchCandidates) {
      candidates.resize(static_cast<std::size_t>(kStrongBranchCandidates));
    }
    const double root_min = to_min(relax.objective);
    bool bounds_fixed = false;
    double obs_sum = 0.0;
    long obs_n = 0;
    for (int j : candidates) {
      Variable& var = work.variable(j);
      const double v = relax.x[static_cast<std::size_t>(j)];
      const double f = v - std::floor(v);
      const double saved_lower = var.lower;
      const double saved_upper = var.upper;
      // A side whose rounded bound crosses the variable's own bound is
      // vacuously infeasible (same guard as the child construction in
      // expand); never hand the LP a crossed bound pair.
      bool down_infeasible = std::floor(v) < saved_lower - 1e-12;
      bool up_infeasible = std::ceil(v) > saved_upper + 1e-12;
      for (const bool down : {true, false}) {
        if (down ? down_infeasible : up_infeasible) continue;
        if (down) {
          var.upper = std::floor(v);
        } else {
          var.lower = std::ceil(v);
        }
        WarmStart probe_warm;
        probe_warm.basis = root_basis.basis;
        const Solution child = solve_lp(work, lp, &probe_warm);
        var.lower = saved_lower;
        var.upper = saved_upper;
        ++st.strong_branch_solves;
        prep.iters += child.iterations;
        prep.pivots += child.pivots;
        prep.dual_pivots += child.dual_pivots;
        const double step = down ? f : 1.0 - f;
        if (child.status == SolveStatus::kOptimal) {
          const double per_unit = std::max(0.0, to_min(child.objective) -
                                                    root_min) /
                                  std::max(step, 1e-6);
          pc.observe(j, down, per_unit);
          obs_sum += per_unit;
          ++obs_n;
        } else if (child.status == SolveStatus::kInfeasible) {
          (down ? down_infeasible : up_infeasible) = true;
        }
      }
      // Exactly one side impossible: every feasible point satisfies the
      // other side's bound, and that bound cannot cross (the surviving
      // side's guard held). A doubly-infeasible variable gets no fix and
      // leaves the search to certify infeasibility.
      if (down_infeasible && !up_infeasible) {
        var.lower = std::ceil(v);
        bounds_fixed = true;
      } else if (up_infeasible && !down_infeasible) {
        var.upper = std::floor(v);
        bounds_fixed = true;
      }
    }
    if (obs_n > 0) {
      pc.fallback = std::max(1e-3, obs_sum / static_cast<double>(obs_n));
    }
    if (bounds_fixed) {
      relax = solve_lp(work, lp, &root_basis);
      prep.iters += relax.iterations;
      prep.pivots += relax.pivots;
      prep.dual_pivots += relax.dual_pivots;
    }
  }

  prep.basis = std::move(root_basis.basis);
  prep.relax = std::move(relax);
  return prep;
}

/// Deterministic incumbent acceptance: a strictly better objective wins;
/// equal objectives break ties lexicographically on x, so the final
/// incumbent of a run-to-optimality search does not depend on the order in
/// which equal-objective integer nodes are reached.
bool better_incumbent(double cand_min, const std::vector<double>& cand_x,
                      double best_min, const Solution& best) {
  if (cand_min != best_min) return cand_min < best_min;
  return std::lexicographical_compare(cand_x.begin(), cand_x.end(),
                                      best.x.begin(), best.x.end());
}

/// Applies the node's bound chain to `work`, solves the relaxation
/// (warm-started from the parent basis), restores `work`, and builds the
/// children.
Expansion expand(const Search& s, Model& work,
                 const std::shared_ptr<const Node>& node, double incumbent_min,
                 WarmStart* root_warm) {
  Expansion out;

  // Apply the chain root-first so deeper deltas override ancestors.
  std::vector<const Node*> chain;
  for (const Node* p = node.get(); p != nullptr && p->var >= 0;
       p = p->parent.get()) {
    chain.push_back(p);
  }
  std::vector<std::pair<int, std::pair<double, double>>> saved;
  saved.reserve(chain.size());
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    Variable& v = work.variable((*it)->var);
    saved.push_back({(*it)->var, {v.lower, v.upper}});
    v.lower = (*it)->lower;
    v.upper = (*it)->upper;
  }

  const bool is_root = node->var < 0;
  WarmStart ws;
  if (is_root && root_warm != nullptr) {
    ws.basis = root_warm->basis;
  } else if (node->warm != nullptr) {
    ws.basis = *node->warm;
  }
  if (is_root && s.root_relax != nullptr && node->warm != nullptr) {
    // prepare_root already solved this exact model from this exact basis;
    // re-solving would install the optimal basis only to price it and
    // conclude it is optimal. Adopt the prep result (ws.basis already holds
    // the root basis for the children).
    out.relax = *s.root_relax;
    out.warm_used = true;
  } else {
    out.relax = solve_lp(work, s.opt.lp, &ws);
    out.warm_used = ws.used;
  }

  for (auto it = saved.rbegin(); it != saved.rend(); ++it) {
    work.variable(it->first).lower = it->second.first;
    work.variable(it->first).upper = it->second.second;
  }

  if (is_root && root_warm != nullptr) {
    // Hand the root relaxation's final basis back to the caller, who chains
    // it into the next related solve (admission re-checks, recovery).
    root_warm->basis = ws.basis;
    root_warm->used = ws.used;
  }

  if (out.relax.status != SolveStatus::kOptimal) return out;
  out.bound_min = s.to_min(out.relax.objective);
  if (out.bound_min >= incumbent_min - kGapTol) return out;  // pruned

  int branch_var = -1;
  if (s.pc.active) {
    // Pseudo-cost selection: the frozen root tables refined with the
    // observed per-unit degradations along this node's own ancestor chain
    // (child realized bound minus parent bound over |pc_step|). Chain-local
    // by design — the choice is a pure function of tree position.
    struct ChainObs {
      int var;
      bool down;
      double per_unit;
    };
    std::vector<ChainObs> chain_obs;
    chain_obs.reserve(chain.size());
    double realized = out.bound_min;
    for (const Node* p : chain) {  // node first, then ancestors
      if (p->pc_step != 0.0 && std::isfinite(realized) &&
          std::isfinite(p->lp_bound)) {
        chain_obs.push_back({p->var, p->pc_step > 0.0,
                             std::max(0.0, realized - p->lp_bound) /
                                 std::abs(p->pc_step)});
      }
      realized = p->lp_bound;
    }
    const auto estimate = [&](int j, bool down) {
      const auto idx = static_cast<std::size_t>(j);
      double sum = down ? s.pc.down_sum[idx] : s.pc.up_sum[idx];
      int n = down ? s.pc.down_n[idx] : s.pc.up_n[idx];
      for (const ChainObs& o : chain_obs) {
        if (o.var == j && o.down == down) {
          sum += o.per_unit;
          ++n;
        }
      }
      return n > 0 ? sum / n : s.pc.fallback;
    };
    double best_score = -1.0;
    for (int j : s.int_vars) {
      const double v = out.relax.x[static_cast<std::size_t>(j)];
      const double f = v - std::floor(v);
      if (std::min(f, 1.0 - f) <= kIntegerTol) continue;
      const double score = std::max(1e-6, estimate(j, true) * f) *
                           std::max(1e-6, estimate(j, false) * (1.0 - f));
      if (score > best_score) {  // ties keep the smallest variable index
        best_score = score;
        branch_var = j;
      }
    }
    out.pc_branched = branch_var >= 0;
  } else {
    // Most fractional integer variable.
    double best_frac = kIntegerTol;
    for (int j : s.int_vars) {
      const double v = out.relax.x[static_cast<std::size_t>(j)];
      const double frac = std::abs(v - std::round(v));
      if (frac > best_frac) {
        best_frac = frac;
        branch_var = j;
      }
    }
  }

  if (branch_var < 0) {
    // Integer feasible: round off tolerance noise and offer as incumbent.
    for (int j : s.int_vars) {
      out.relax.x[static_cast<std::size_t>(j)] =
          std::round(out.relax.x[static_cast<std::size_t>(j)]);
    }
    // Rounding may only absorb tolerance noise, never move the point off
    // the feasible set the relaxation certified.
    BATE_DCHECK_MSG(s.model.feasible(out.relax.x, 1e-4),
                    "branch_bound: rounded incumbent infeasible");
    out.integer_feasible = true;
    return out;
  }

  // Branch within the bounds active at this node. The nearest ancestor
  // delta on branch_var already carries the whole path's intersection.
  double lo = s.model.variable(branch_var).lower;
  double hi = s.model.variable(branch_var).upper;
  for (const Node* p = node.get(); p != nullptr && p->var >= 0;
       p = p->parent.get()) {
    if (p->var == branch_var) {
      lo = p->lower;
      hi = p->upper;
      break;
    }
  }

  const auto child_basis = std::make_shared<const Basis>(std::move(ws.basis));
  const double v = out.relax.x[static_cast<std::size_t>(branch_var)];
  const double branch_frac = v - std::floor(v);
  auto make_child = [&](double clo, double chi, std::uint64_t salt,
                        double pc_step) {
    auto child = std::make_shared<Node>();
    child->parent = node;
    child->warm = child_basis;
    child->lp_bound = out.bound_min;
    child->tie = mix64(node->tie ^ salt);
    child->var = branch_var;
    child->lower = clo;
    child->upper = chi;
    child->pc_step = pc_step;
    child->depth = node->depth + 1;
    ++out.deltas;
    out.children.push_back(std::move(child));
  };
  if (std::floor(v) >= lo - 1e-12) {
    make_child(lo, std::floor(v), 0x2545f491ull, branch_frac);
  }
  if (std::ceil(v) <= hi + 1e-12) {
    make_child(std::ceil(v), hi, 0x9d2c5681ull, -(1.0 - branch_frac));
  }
  return out;
}

/// Final bound accounting. `lost_bound_min` is the
/// weakest (smallest, minimization sense) bound of any subtree the search
/// did not close — kInfinity when the tree was fully explored, which is
/// exactly when the verdict is proven.
void finish_bound_stats(const Search& s, BranchBoundStats& st,
                        double lost_bound_min, double incumbent_min) {
  st.proven = lost_bound_min == kInfinity;
  const double bound_min = std::min(lost_bound_min, incumbent_min);
  st.best_bound = s.maximize ? -bound_min : bound_min;
  if (st.proven) {
    st.mip_gap = 0.0;
  } else if (incumbent_min < kInfinity) {
    st.mip_gap =
        (incumbent_min - bound_min) / std::max(1.0, std::abs(incumbent_min));
  } else {
    st.mip_gap = 1.0;
  }
}

/// The best-bound tree search from `root`.
Solution run_tree(const Search& s, std::shared_ptr<const Node> root,
                  WarmStart* root_warm, BranchBoundStats& st) {
  Solution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  double incumbent_min = kInfinity;

  OpenQueue open;
  open.push(std::move(root));
  st.nodes_created = 1;
  st.open_peak = 1;

  Model work = s.model;  // mutated bounds per node, restored afterwards
  long popped = 0;
  long iters = 0;
  long pivots = 0;
  long dual_pivots = 0;
  bool budget_hit = false;
  // Weakest bound whose subtree the search failed to close (budget break,
  // LP iteration limit, early stop); kInfinity while the tree stays tight.
  double lost_bound_min = kInfinity;

  while (!open.empty()) {
    const auto node = open.top();
    open.pop();
    if (node->lp_bound >= incumbent_min - kGapTol) {  // pruned
      ++st.nodes_pruned;
      continue;
    }
    if (++popped > s.opt.node_limit || s.out_of_time()) {
      budget_hit = true;
      lost_bound_min = std::min(lost_bound_min, node->lp_bound);
      break;
    }

    Expansion e = expand(s, work, node, incumbent_min, root_warm);
    ++st.nodes_solved;
    if (e.warm_used) ++st.warm_started_nodes;
    if (e.pc_branched) ++st.pseudo_cost_branches;
    st.max_depth = std::max(st.max_depth, node->depth);
    iters += e.relax.iterations;
    pivots += e.relax.pivots;
    dual_pivots += e.relax.dual_pivots;

    if (e.relax.status == SolveStatus::kInfeasible) continue;
    if (e.relax.status == SolveStatus::kUnbounded) {
      // An unbounded relaxation makes the MILP unbounded or infeasible;
      // report it directly (our models never hit this in practice).
      e.relax.iterations = iters;
      e.relax.pivots = pivots;
      e.relax.dual_pivots = dual_pivots;
      e.relax.nodes = st.nodes_solved;
      st.proven = true;
      st.mip_gap = 0.0;
      return e.relax;
    }
    if (e.relax.status == SolveStatus::kIterationLimit) {
      budget_hit = true;
      lost_bound_min = std::min(lost_bound_min, node->lp_bound);
      continue;
    }
    if (e.integer_feasible) {
      if (better_incumbent(e.bound_min, e.relax.x, incumbent_min, incumbent)) {
        incumbent_min = e.bound_min;
        incumbent = std::move(e.relax);
        incumbent.status = SolveStatus::kOptimal;
        ++st.incumbent_updates;
      }
      if (s.opt.stop_at_first_incumbent) break;
      continue;
    }
    st.nodes_created += static_cast<long>(e.children.size());
    st.bound_deltas_allocated += e.deltas;
    for (auto& c : e.children) open.push(std::move(c));
    st.open_peak = std::max(st.open_peak, static_cast<long>(open.size()));
  }

  if (budget_hit) {
    // kIterationLimit either carries the best incumbent (x non-empty) or,
    // with no incumbent found, reports that neither feasibility nor
    // infeasibility was established within the budget (x empty).
    incumbent.status = SolveStatus::kIterationLimit;
  }
  if (!open.empty()) {
    lost_bound_min = std::min(lost_bound_min, open.top()->lp_bound);
  }
  finish_bound_stats(s, st, lost_bound_min, incumbent_min);
  incumbent.iterations = iters;
  incumbent.pivots = pivots;
  incumbent.dual_pivots = dual_pivots;
  incumbent.nodes = st.nodes_solved;
  return incumbent;
}

/// The branch & bound search itself, on whatever model it is given (the
/// presolved reduction or, when presolve is off, the original).
Solution run_search(const Model& model, const BranchBoundOptions& options,
                    WarmStart* root_warm, BranchBoundStats& st) {
  const bool maximize = model.sense() == Sense::kMaximize;
  std::vector<int> int_vars;
  for (int j = 0; j < model.variable_count(); ++j) {
    if (model.variable(j).integer) int_vars.push_back(j);
  }

  auto root = std::make_shared<Node>();
  root->tie = mix64(kTieBreakSeed ^ 0x6a09e667f3bcc908ull);

  // Root preparation: cuts and strong branching run on a private augmented
  // copy (the search then explores that copy — children inherit the cut
  // rows through their re-solves). Reference mode keeps the plain
  // relaxation tree as the oracle.
  const bool prep_on = !options.lp.reference_mode && !int_vars.empty();
  Model augmented;
  const Model* search_model = &model;
  PseudoCosts pc;
  RootPrep prep;
  WarmStart* tree_warm = root_warm;
  if (prep_on) {
    augmented = model;
    prep = prepare_root(augmented, options.lp, int_vars, maximize, root_warm,
                        st, pc);
    search_model = &augmented;
    // The caller's handle already received the pre-cut root basis inside
    // prepare_root; the tree itself restarts from the post-cut basis held
    // by the root node, so run_tree must not touch the handle again.
    tree_warm = nullptr;
    if (!prep.basis.empty()) {
      root->warm = std::make_shared<const Basis>(std::move(prep.basis));
    }
  }

  Search s{*search_model, options,    maximize,
           std::move(int_vars),       obs::now_us(), std::move(pc)};
  if (prep_on && prep.relax.status == SolveStatus::kOptimal) {
    // Hand the already-solved root relaxation to run_tree. Work counters
    // are zeroed — the prep pass's totals are folded into `sol` below, and
    // the adopted copy must not count them twice.
    prep.relax.iterations = prep.relax.pivots = prep.relax.dual_pivots = 0;
    prep.relax.refactorizations = prep.relax.pricing_resets = 0;
    prep.relax.nodes = 0;
    prep.relax.rows_removed = prep.relax.cols_removed = 0;
    prep.relax.presolve_us = 0;
    s.root_relax = &prep.relax;
  }

  Solution sol = run_tree(s, std::move(root), tree_warm, st);
  sol.iterations += prep.iters;
  sol.pivots += prep.pivots;
  sol.dual_pivots += prep.dual_pivots;
  return sol;
}

/// One registry flush per MILP solve; the node loop only bumps the plain
/// BranchBoundStats fields.
void record_milp_solve(const BranchBoundStats& st, std::int64_t total_us) {
  if (!obs::enabled()) return;
  auto& reg = obs::Registry::global();
  static obs::Counter& solves = reg.counter("bate_bnb_solves_total");
  static obs::Counter& created = reg.counter("bate_bnb_nodes_created_total");
  static obs::Counter& solved = reg.counter("bate_bnb_nodes_solved_total");
  static obs::Counter& pruned = reg.counter("bate_bnb_nodes_pruned_total");
  static obs::Counter& incumbents =
      reg.counter("bate_bnb_incumbent_updates_total");
  static obs::Counter& warm = reg.counter("bate_bnb_warm_started_nodes_total");
  static obs::Counter& gomory = reg.counter("bate_bnb_gomory_cuts_total");
  static obs::Counter& cover = reg.counter("bate_bnb_cover_cuts_total");
  static obs::Counter& cut_rounds = reg.counter("bate_bnb_cut_rounds_total");
  static obs::Counter& strong =
      reg.counter("bate_bnb_strong_branch_solves_total");
  static obs::Counter& pc_branches =
      reg.counter("bate_bnb_pseudo_cost_branches_total");
  static obs::Gauge& open_peak = reg.gauge("bate_bnb_open_peak");
  static obs::Histogram& solve_us = reg.histogram("bate_bnb_solve_us");
  solves.inc();
  created.inc(st.nodes_created);
  solved.inc(st.nodes_solved);
  pruned.inc(st.nodes_pruned);
  incumbents.inc(st.incumbent_updates);
  warm.inc(st.warm_started_nodes);
  gomory.inc(st.gomory_cuts);
  cover.inc(st.cover_cuts);
  cut_rounds.inc(st.cut_rounds);
  strong.inc(st.strong_branch_solves);
  pc_branches.inc(st.pseudo_cost_branches);
  open_peak.max_of(static_cast<double>(st.open_peak));
  solve_us.record(total_us);
}

Solution solve_milp_impl(const Model& model, const BranchBoundOptions& options,
                         WarmStart* root_warm, BranchBoundStats& st) {
  if (!model.has_integers()) {
    Solution sol = solve_lp(model, options.lp, root_warm);
    st.proven = sol.status == SolveStatus::kOptimal ||
                sol.status == SolveStatus::kInfeasible ||
                sol.status == SolveStatus::kUnbounded;
    st.best_bound = sol.objective;
    st.mip_gap = st.proven ? 0.0 : 1.0;
    return sol;
  }

  // Presolve once at the root (MILP mode: integer bounds rounded inward,
  // continuous-only reductions skipped) and search the reduced model; the
  // per-node bound deltas compose on top of the reduction because branching
  // only ever touches integer columns that survived it. Nodes solve with
  // presolve off — the root reduction already covers them.
  if (!options.lp.presolve || options.lp.reference_mode) {
    return run_search(model, options, root_warm, st);
  }
  const std::int64_t t0 = obs::now_us();
  PresolveOptions popt;
  popt.for_milp = true;
  PresolveResult pre = [&] {
    BATE_TRACE_SPAN("solver.presolve");
    return presolve_model(model, popt);
  }();
  const long pus = static_cast<long>(obs::now_us() - t0);
  if (pre.infeasible) {
    st.proven = true;
    st.mip_gap = 0.0;
    Solution sol;
    sol.status = SolveStatus::kInfeasible;
    sol.x.resize(static_cast<std::size_t>(model.variable_count()));
    for (int j = 0; j < model.variable_count(); ++j) {
      sol.x[static_cast<std::size_t>(j)] = model.variable(j).lower;
    }
    sol.rows_removed = pre.stats.rows_removed;
    sol.cols_removed = pre.stats.cols_removed;
    sol.presolve_us = pus;
    if (root_warm) {
      // Same contract as solve_lp: the handle keeps a full-shape basis even
      // when presolve settles the verdict before the engine runs.
      root_warm->used = false;
      root_warm->basis = slack_basis(model);
    }
    return sol;
  }
  BranchBoundOptions inner = options;
  inner.lp.presolve = false;
  if (pre.post.trivial()) {
    Solution sol = run_search(model, inner, root_warm, st);
    sol.presolve_us = pus;
    return sol;
  }
  WarmStart reduced_warm;
  WarmStart* rw = nullptr;
  if (root_warm) {
    root_warm->used = false;
    if (!root_warm->basis.empty() && root_warm->basis.compatible_with(model)) {
      reduced_warm.basis = pre.post.to_reduced(root_warm->basis);
    }
    rw = &reduced_warm;
  }
  // Search even when every integer column was fixed by the reduction: the
  // root node still counts in the stats contract (nodes_created >= 1 with
  // bound_deltas_allocated == nodes_created - 1), and an integer-free root
  // relaxation is immediately integer-feasible anyway.
  Solution red = run_search(pre.reduced, inner, rw, st);
  red.duals.clear();  // branch & bound returns no duals (Solution contract)
  // The search proved its bound on the reduced model; shift it by the
  // removed variables' objective contribution, the same translation expand
  // applies to the objective itself. The relative gap is unchanged only up
  // to the offset, so recompute it against the full-model incumbent.
  st.best_bound += pre.post.objective_offset();
  Solution sol = pre.post.expand(model, red);
  if (!st.proven && sol.status != SolveStatus::kInfeasible &&
      !sol.x.empty() && std::isfinite(sol.objective)) {
    const double inc_min =
        model.sense() == Sense::kMaximize ? -sol.objective : sol.objective;
    const double bb_min =
        model.sense() == Sense::kMaximize ? -st.best_bound : st.best_bound;
    st.mip_gap = (inc_min - bb_min) / std::max(1.0, std::abs(inc_min));
  }
  sol.rows_removed = pre.stats.rows_removed;
  sol.cols_removed = pre.stats.cols_removed;
  sol.presolve_us = pus;
  if (root_warm) {
    root_warm->used = rw->used;
    root_warm->basis = pre.post.to_full(rw->basis, red.x);
  }
  return sol;
}

}  // namespace

Solution solve_milp(const Model& model, const BranchBoundOptions& options,
                    WarmStart* root_warm, BranchBoundStats* stats) {
  BATE_ASSERT_MSG(options.node_limit > 0, "branch_bound: node_limit <= 0");
  BATE_TRACE_SPAN("solver.solve_milp");
  BranchBoundStats local;
  BranchBoundStats& st = stats != nullptr ? *stats : local;
  st = BranchBoundStats{};
  const std::int64_t t0 = obs::now_us();
  Solution sol = solve_milp_impl(model, options, root_warm, st);
  record_milp_solve(st, obs::now_us() - t0);
  return sol;
}

}  // namespace bate
