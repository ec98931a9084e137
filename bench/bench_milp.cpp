// MILP microbench: times solve_milp on fixed seeded admission / recovery
// MILP instances under the production branch & bound (children warm-start
// from the parent relaxation's final basis; root cuts and pseudo-cost
// branching on) and emits BENCH_milp.json via tools/bench_report so every
// PR carries a perf trajectory for the integer path too.
//
// Two instance families, each run with its production configuration:
//
//  * admission_* — the admission feasibility MILPs, solved the way
//    core/admission.cpp solves them: stop at the first incumbent under a
//    node budget.
//  * recovery_* — post-failure recovery MILPs with non-trivial refund
//    fractions, demand volumes scaled until surviving capacity binds, and
//    the most-loaded links failed, solved to optimality.
//
// Every timed solve is checked against a baseline or the bench aborts.
// Instances with a reference run (all recovery instances, the testbed6
// admissions) are solved once more under the reference simplex; statuses
// must match, and objectives must agree to 1e-6 relative where both ran to
// optimality. The remaining stop-at-first instances skip the reference run
// (a 2000-node reference-mode tree costs close to a minute) and must reach
// the same verdict (incumbent found / infeasible / budget exhausted) as
// their run-to-optimality prove run.
//
// Usage:
//   bench_milp [--reps N] [--out BENCH_milp.json] [--validate FILE]
//
// --validate parses FILE against the BENCH schema and exits (0 valid, 1
// not); the CI bench-smoke leg uses it on the file a tiny --reps run just
// emitted.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common.h"
#include "core/admission.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "sim/experiment.h"
#include "solver/branch_bound.h"
#include "workload/traffic_matrix.h"

namespace {

using namespace bate;

struct Instance {
  std::string name;
  Model model;
  bool stop_at_first = false;  // admission: production config
  long node_limit = 0;
  bool run_reference = false;  // solve once in reference mode and compare
};

using bench::quantile;

/// This bench's workload density (see bench::seeded_demands).
std::vector<Demand> seeded_demands(const TunnelCatalog& catalog,
                                   const Topology& topo, int count,
                                   std::uint64_t seed) {
  return bench::seeded_demands(catalog, topo, count, seed, 2.0, 10.0);
}

/// The `count` most loaded links (by total tunnel-membership demand), i.e.
/// the failures that actually stress the recovery MILP into branching.
std::vector<LinkId> most_loaded_links(const Topology& topo,
                                      const TunnelCatalog& catalog,
                                      const std::vector<Demand>& demands,
                                      int count) {
  std::vector<double> load(topo.links().size(), 0.0);
  for (const Demand& d : demands) {
    for (const auto& pr : d.pairs) {
      for (const Tunnel& t : catalog.tunnels(pr.pair)) {
        for (LinkId l : t.links) load[static_cast<std::size_t>(l)] += pr.mbps;
      }
    }
  }
  std::vector<LinkId> idx(load.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<LinkId>(i);
  std::sort(idx.begin(), idx.end(), [&](LinkId a, LinkId b) {
    return load[static_cast<std::size_t>(a)] >
           load[static_cast<std::size_t>(b)];
  });
  idx.resize(static_cast<std::size_t>(count));
  std::sort(idx.begin(), idx.end());
  return idx;
}

/// Fixed instance set on pinned seeds. Admission instances mirror the
/// controller's feasibility checks (stop at first incumbent, 2000-node
/// budget); recovery instances get explicit refund fractions (workload
/// snapshots default to mu = 0, which makes the y variables objective-free
/// and the relaxation trivially integral), scaled-up volumes, and the most
/// loaded links failed so the MILPs branch rather than solving at the root.
std::vector<Instance> build_instances() {
  std::vector<Instance> out;

  struct AdmissionSpec {
    const char* name;
    Topology topo;
    int demands;
    int y;
    std::uint64_t seed;
    bool run_reference;
  };
  std::vector<AdmissionSpec> aspecs;
  aspecs.push_back({"testbed6_d12", testbed6(), 12, 2, 4242, true});
  aspecs.push_back({"testbed6_d20", testbed6(), 20, 2, 4247, true});
  aspecs.push_back({"ibm_d10", ibm(), 10, 3, 4254, false});
  aspecs.push_back({"ibm_d12", ibm(), 12, 3, 4252, false});
  aspecs.push_back({"ibm_d14", ibm(), 14, 3, 4253, false});
  aspecs.push_back({"b4_d8", b4(), 8, 3, 4248, false});
  aspecs.push_back({"b4_d10", b4(), 10, 3, 4249, false});
  for (auto& s : aspecs) {
    const auto catalog = TunnelCatalog::build_all_pairs(s.topo, 4);
    SchedulerConfig cfg;
    cfg.max_failures = s.y;
    TrafficScheduler sched(s.topo, catalog, cfg);
    const auto demands = seeded_demands(catalog, s.topo, s.demands, s.seed);
    Instance inst;
    inst.name = std::string("admission_") + s.name;
    inst.model = build_admission_model(sched, demands);
    inst.stop_at_first = true;
    inst.node_limit = 2000;
    inst.run_reference = s.run_reference;
    out.push_back(std::move(inst));
  }

  struct RecoverySpec {
    const char* name;
    Topology topo;
    int demands;
    std::uint64_t seed;
    double scale;
    int failures;
  };
  std::vector<RecoverySpec> rspecs;
  rspecs.push_back({"testbed6_d24", testbed6(), 24, 4243, 10.0, 3});
  rspecs.push_back({"b4_d23", b4(), 23, 4244, 24.0, 4});
  rspecs.push_back({"ibm_d24", ibm(), 24, 4251, 20.0, 4});
  for (auto& s : rspecs) {
    const auto catalog = TunnelCatalog::build_all_pairs(s.topo, 4);
    auto demands = seeded_demands(catalog, s.topo, s.demands, s.seed);
    for (std::size_t i = 0; i < demands.size(); ++i) {
      demands[i].refund_fraction = 0.2 + 0.15 * static_cast<double>(i % 5);
      for (auto& p : demands[i].pairs) p.mbps *= s.scale;
    }
    const auto failed =
        most_loaded_links(s.topo, catalog, demands, s.failures);
    Instance inst;
    inst.name = std::string("recovery_") + s.name;
    inst.model = build_recovery_model(s.topo, catalog, demands, failed);
    inst.stop_at_first = false;
    inst.node_limit = 4000;
    inst.run_reference = true;
    out.push_back(std::move(inst));
  }
  return out;
}

struct Timed {
  Solution sol;
  BranchBoundStats stats;
  std::vector<double> times_ms;
  double median_ms = 0.0;
  double p95_ms = 0.0;
};

Timed run_config(const Model& model, const BranchBoundOptions& opt, int reps) {
  Timed t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    t.sol = solve_milp(model, opt, nullptr, &t.stats);
    const auto t1 = std::chrono::steady_clock::now();
    t.times_ms.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  t.median_ms = quantile(t.times_ms, 0.5);
  t.p95_ms = quantile(t.times_ms, 0.95);
  return t;
}

/// Same status, and the same objective (1e-6 relative) when both ran to
/// optimality. Stop-at-first searches compare the status only: the fast
/// and reference trees differ (no cuts or pseudo-costs in reference mode),
/// so their first incumbents may too, and any feasible point is a valid
/// answer under that config.
bool agree(const Solution& a, const Solution& b, bool stop_at_first) {
  if (a.status != b.status) return false;
  if (stop_at_first || a.status != SolveStatus::kOptimal) return true;
  const double denom = std::max(1.0, std::abs(b.objective));
  return std::abs(a.objective - b.objective) / denom <= 1e-6;
}

/// The verdict the controller consumes: 1 incumbent found, 0 infeasible,
/// -1 budget exhausted with neither established.
int verdict(const Solution& s) {
  if (!s.x.empty() && (s.status == SolveStatus::kOptimal ||
                       s.status == SolveStatus::kIterationLimit)) {
    return 1;
  }
  return s.status == SolveStatus::kInfeasible ? 0 : -1;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::string out_path = "BENCH_milp.json";
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--reps") == 0 && a + 1 < argc) {
      reps = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out_path = argv[++a];
    } else if (std::strcmp(argv[a], "--validate") == 0 && a + 1 < argc) {
      const std::string err = validate_bench_json(argv[a + 1]);
      if (!err.empty()) {
        std::fprintf(stderr, "bench_milp: %s: INVALID: %s\n", argv[a + 1],
                     err.c_str());
        return 1;
      }
      std::printf("bench_milp: %s: schema OK\n", argv[a + 1]);
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: bench_milp [--reps N] [--out FILE] "
                   "[--validate FILE]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;

  auto instances = build_instances();
  BenchReport report;
  report.bench = "milp";

  std::printf("%-24s %9s %9s %8s %9s %10s %9s\n", "instance", "warm_ms",
              "prove_ms", "nodes", "warm_nds", "nodes/s", "ref_ms");
  for (const Instance& inst : instances) {
    std::fprintf(stderr, "bench_milp: solving %s (%d rows, %d cols)\n",
                 inst.name.c_str(), inst.model.constraint_count(),
                 inst.model.variable_count());
    BranchBoundOptions warm_opt;
    warm_opt.node_limit = inst.node_limit;
    warm_opt.stop_at_first_incumbent = inst.stop_at_first;

    // Reference baseline: branch & bound over the reference simplex (full
    // pricing, refactorization every iteration, no root cuts or
    // pseudo-costs). One timed solve.
    double ref_ms = 0.0;
    Solution ref_sol;
    if (inst.run_reference) {
      BranchBoundOptions ref_opt = warm_opt;
      ref_opt.lp.reference_mode = true;
      const auto r0 = std::chrono::steady_clock::now();
      ref_sol = solve_milp(inst.model, ref_opt);
      const auto r1 = std::chrono::steady_clock::now();
      ref_ms = std::chrono::duration<double, std::milli>(r1 - r0).count();
    }

    const Timed warm = run_config(inst.model, warm_opt, reps);

    // Optimality certificate. Stop-at-first instances exit at the first
    // incumbent by design, which says nothing about optimality — so they
    // get one extra run-to-optimality configuration under the same node
    // budget, and proven_optimal / mip_gap report THAT run. Instances
    // already solved to optimality certify themselves from the warm run.
    Timed prove;
    const bool has_prove = inst.stop_at_first;
    if (has_prove) {
      BranchBoundOptions prove_opt = warm_opt;
      prove_opt.stop_at_first_incumbent = false;
      prove = run_config(inst.model, prove_opt, reps);
    }
    const Timed& cert = has_prove ? prove : warm;

    const bool ok = inst.run_reference
                        ? agree(warm.sol, ref_sol, inst.stop_at_first)
                        : verdict(warm.sol) == verdict(prove.sol);
    if (!ok) {
      const Solution& baseline = inst.run_reference ? ref_sol : prove.sol;
      std::fprintf(stderr,
                   "bench_milp: %s: verdict/objective mismatch (warm "
                   "status=%d obj=%.9g, %s status=%d obj=%.9g)\n",
                   inst.name.c_str(), static_cast<int>(warm.sol.status),
                   warm.sol.objective,
                   inst.run_reference ? "reference" : "prove",
                   static_cast<int>(baseline.status), baseline.objective);
      return 1;
    }

    const double nodes_per_sec =
        warm.median_ms > 0.0
            ? static_cast<double>(warm.stats.nodes_solved) /
                  (warm.median_ms / 1e3)
            : 0.0;

    // Runs an instance does not have print as "-".
    const auto ms_or_dash = [](bool ran, double ms) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.3f", ms);
      return ran ? std::string(buf) : std::string("-");
    };
    std::printf("%-24s %9.3f %9s %8ld %9ld %10.0f %9s\n", inst.name.c_str(),
                warm.median_ms, ms_or_dash(has_prove, prove.median_ms).c_str(),
                warm.stats.nodes_solved, warm.stats.warm_started_nodes,
                nodes_per_sec, ms_or_dash(inst.run_reference, ref_ms).c_str());

    BenchCase c;
    c.name = inst.name;
    int int_cols = 0;
    for (const Variable& v : inst.model.variables()) {
      if (v.integer) ++int_cols;
    }
    c.metrics = {
        {"rows", static_cast<double>(inst.model.constraint_count())},
        {"cols", static_cast<double>(inst.model.variable_count())},
        {"int_cols", static_cast<double>(int_cols)},
        {"node_limit", static_cast<double>(inst.node_limit)},
        {"nodes", static_cast<double>(warm.stats.nodes_solved)},
        {"warm_started_nodes",
         static_cast<double>(warm.stats.warm_started_nodes)},
        {"max_depth", static_cast<double>(warm.stats.max_depth)},
        {"warm_median_ms", warm.median_ms},
        {"warm_p95_ms", warm.p95_ms},
        {"nodes_per_sec", nodes_per_sec},
        // Root presolve counters (schema v2): reduction of the model the
        // search actually ran on, from the warm configuration's solve.
        {"rows_removed", static_cast<double>(warm.sol.rows_removed)},
        {"cols_removed", static_cast<double>(warm.sol.cols_removed)},
        {"presolve_us", static_cast<double>(warm.sol.presolve_us)},
        // Optimality certificate (schema v4): did the search close the tree
        // within the node limit, and how far the best bound was from the
        // incumbent if not. Plus the cut / branching work that got it there.
        {"proven_optimal", cert.stats.proven ? 1.0 : 0.0},
        {"mip_gap", cert.stats.mip_gap},
        {"dual_pivots", static_cast<double>(warm.sol.dual_pivots)},
        {"gomory_cuts", static_cast<double>(warm.stats.gomory_cuts)},
        {"cover_cuts", static_cast<double>(warm.stats.cover_cuts)},
        {"cut_rounds", static_cast<double>(warm.stats.cut_rounds)},
        {"strong_branch_solves",
         static_cast<double>(warm.stats.strong_branch_solves)},
    };
    if (has_prove) {
      c.metrics.push_back(
          {"prove_nodes", static_cast<double>(prove.stats.nodes_solved)});
      c.metrics.push_back({"prove_median_ms", prove.median_ms});
    }
    if (inst.run_reference) c.metrics.push_back({"reference_ms", ref_ms});
    report.cases.push_back(std::move(c));
  }

  write_bench_json(report, out_path);
  const std::string err = validate_bench_json(out_path);
  if (!err.empty()) {
    std::fprintf(stderr, "bench_milp: emitted file invalid: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cases)\n", out_path.c_str(),
              report.cases.size());
  return 0;
}
