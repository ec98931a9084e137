// BENCH_*.json emission and schema validation.
//
// Every perf-relevant bench writes one JSON report so the repo accumulates a
// perf trajectory across PRs (EXPERIMENTS.md "Solver microbenchmark"). The
// schema is deliberately tiny:
//
//   {
//     "bench": "solver",
//     "schema_version": 2,
//     "cases": [
//       {"name": "testbed6_d12",
//        "metrics": {"median_ms": 0.41, "p95_ms": 0.47, ...}},
//       ...
//     ]
//   }
//
// Schema history: v2 (presolve PR) added the presolve metrics
// (rows_removed_pct, cols_removed_pct, presolve_us, nopresolve_median_ms,
// speedup_vs_nopresolve) to the solver bench; v3 (observability PR) added
// the optional top-level "obs" object — the src/obs registry snapshot of
// one representative solve, in the metrics JSON exposition; v4 (cuts PR)
// added the MILP optimality metrics (proven_optimal, mip_gap, dual_pivots,
// gomory_cuts, cover_cuts, cut_rounds, strong_branch_solves) to the milp
// bench; v5 (admission pipeline PR) added the system bench
// (BENCH_system.json: admissions_per_sec, p50/p99_reply_us, shed) and the
// check_bench_max ceiling gate for lower-is-better metrics; v6 (SLO
// ledger PR) added the system bench's slo chaos case (slo_demands,
// slo_crosscheck_max_abs_err, slo_min/mean_availability, slo_worst_burn)
// and the solver obs-overhead arms now exercise the ledger + time-series
// store. The one removal came after v6: the milp bench stopped timing its
// cold-node and parallel branch & bound configurations when those solver
// paths were deleted, dropping cold_median_ms, cold_p95_ms,
// parallel_median_ms, parallel_p95_ms, warm_speedup_vs_cold and
// parallel_speedup_vs_cold (no version bump: no gate or validator rule read
// them, and BENCH_milp.json lost them by hand with every other number
// kept). All other changes are additive: the container shape is unchanged,
// the validator accepts v1-v6 files, and the version field is informational
// for downstream diffing.
//
// validate_bench_json re-parses an emitted file with a minimal hand-rolled
// JSON reader (tools/json_mini.h, no third-party deps) and checks exactly
// that shape;
// compare_bench_json diffs two reports and flags perf regressions. The CI
// bench-smoke leg (tools/ci.sh) runs both on every push.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace bate {

struct BenchCase {
  std::string name;
  /// Ordered (metric name, value) pairs; values must be finite.
  std::vector<std::pair<std::string, double>> metrics;
};

struct BenchReport {
  std::string bench;  // e.g. "solver"
  std::vector<BenchCase> cases;
  /// Optional (v3): the obs registry snapshot of one representative solve,
  /// as produced by obs::Registry::dump("json"). Embedded verbatim as the
  /// top-level "obs" object when non-empty.
  std::string obs_json;
};

/// Serializes the report to `path`. Throws std::runtime_error when the file
/// cannot be written or a metric value is not finite.
void write_bench_json(const BenchReport& report, const std::string& path);

/// Parses `path` and checks the BENCH schema above (version 1 through 6).
/// Returns an empty string on success, else a one-line description of the
/// first violation.
std::string validate_bench_json(const std::string& path);

/// Outcome of comparing two BENCH reports (see compare_bench_json).
struct BenchCompareResult {
  /// False when either file is invalid, the reports share no comparable
  /// cases, or the median slowdown exceeds the allowed regression.
  bool ok = false;
  /// Median over shared cases of new_value / old_value (1.0 = no change,
  /// 1.2 = 20% worse). 0 when no cases were comparable.
  double median_ratio = 0.0;
  /// Human-readable per-case table plus a pass/fail summary line.
  std::string report;
};

/// Compares one metric (default `median_ms`) of every case present in both
/// files and fails when the MEDIAN per-case growth exceeds `max_regress`
/// (0.2 means "fail beyond 20% worse"). The median — not the max — is the
/// gate so one noisy case on a loaded machine cannot fail CI, while a real
/// across-the-board regression still does. Works for any higher-is-worse
/// metric: the milp bench gates `nodes` as well as `warm_median_ms`.
BenchCompareResult compare_bench_json(const std::string& old_path,
                                      const std::string& new_path,
                                      double max_regress,
                                      const std::string& metric = "median_ms");

/// Outcome of gating one metric of a single report against a floor (see
/// check_bench_min).
struct BenchMinResult {
  /// False when the file is invalid, no case carries the metric, or any
  /// case falls below the floor.
  bool ok = false;
  /// Smallest value of the metric over the cases that carry it.
  double min_value = 0.0;
  /// Human-readable per-case table plus a pass/fail summary line.
  std::string report;
};

/// Gates a single report: every case carrying `metric` must be >= `floor`.
/// The dual of compare_bench_json for higher-is-BETTER metrics gated as an
/// absolute floor rather than an old/new diff (the CI bench-smoke leg's
/// admissions_per_sec and slo_demands floors sit well under the committed
/// values to absorb single-rep noise).
BenchMinResult check_bench_min(const std::string& path,
                               const std::string& metric, double floor);

/// Outcome of gating one metric of a single report against a ceiling (see
/// check_bench_max).
struct BenchMaxResult {
  /// False when the file is invalid, no case carries the metric, or any
  /// case exceeds the ceiling.
  bool ok = false;
  /// Largest value of the metric over the cases that carry it.
  double max_value = 0.0;
  /// Human-readable per-case table plus a pass/fail summary line.
  std::string report;
};

/// Gates a single report: every case carrying `metric` must be <= `ceiling`.
/// The mirror of check_bench_min for lower-is-better metrics measured in
/// absolute units — the system bench's p99 reply latency has no old/new
/// pair to ratio against, so CI pins it under an absolute ceiling instead.
BenchMaxResult check_bench_max(const std::string& path,
                               const std::string& metric, double ceiling);

}  // namespace bate
