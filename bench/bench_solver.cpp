// Solver microbench: times solve_lp on fixed seeded LP instances built by
// the scheduling / admission / recovery model builders, for the fast engine
// and the reference (debug) engine, and emits BENCH_solver.json via
// tools/bench_report so every PR carries a perf trajectory.
//
// Usage:
//   bench_solver [--reps N] [--out BENCH_solver.json] [--validate FILE]
//                [--trace FILE] [--obs-overhead]
//
// --validate parses FILE against the BENCH schema and exits (0 valid, 1
// not); the CI bench-smoke leg uses it on the file a tiny --reps run just
// emitted. Every instance is solved once with SimplexOptions::reference_mode
// (full pricing + refactorization every iteration — the pre-overhaul
// behaviour) and `reps` times with the default fast path; the two objectives
// must agree to 1e-6 relative or the bench aborts. The restart_* instances
// carry the previous round's basis, translated by ScheduleBasisCache the way
// the live scheduling round does; their fast solves restart from it (the
// reference solve ignores it and runs cold).
//
// The construct_* cases time TrafficScheduler construction at y=3 over
// every catalog pair of five topologies (pattern distributions plus the
// per-(pair, pattern) capability LPs): median_ms is wall time, cpu_ms the
// median process CPU over all threads.
//
// --trace FILE dumps the spans the bench run recorded as Chrome trace_event
// JSON (open in chrome://tracing or https://ui.perfetto.dev).
//
// --obs-overhead runs an interleaved in-process A/B on one representative
// scheduling instance — metrics enabled vs obs::set_enabled(false), the
// runtime equivalent of BATE_OBS_OFF=1 — in on/off pairs whose arm order
// alternates, and exits nonzero when the median per-pair on/off ratio
// exceeds 1.03 (the DESIGN.md Sec 9 budget; CI gates on it in the
// bench-smoke leg).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <string>
#include <vector>

#include "bench_report.h"
#include "common.h"
#include "core/admission.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "solver/simplex.h"
#include "workload/traffic_matrix.h"

namespace {

using namespace bate;

struct Instance {
  std::string name;
  Model model;
  /// Non-empty for restart cases: the basis the fast solves restart from.
  Basis warm;
};

using bench::quantile;

/// This bench's workload density (see bench::seeded_demands).
std::vector<Demand> seeded_demands(const TunnelCatalog& catalog,
                                   const Topology& topo, int count,
                                   std::uint64_t seed) {
  return bench::seeded_demands(catalog, topo, count, seed, 8.0, 20.0);
}

/// A restart case: `next`'s scheduling LP with the basis of a round over
/// `prev`, mapped onto it by demand identity.
Instance restart_instance(const char* name, const TrafficScheduler& sched,
                          const std::vector<Demand>& prev,
                          const std::vector<Demand>& next) {
  ScheduleBasisCache cache;
  sched.schedule(prev, {}, &cache);
  ScheduleLayout layout;
  Instance inst{name, sched.build_schedule_model(next, {}, &layout), {}};
  cache.map_onto(next, layout, inst.model);
  inst.warm = std::move(cache.lp.basis);
  return inst;
}

/// The fixed instance set: scheduling LPs on three topologies plus the LP
/// relaxations of the admission and recovery MILPs, and two restarts of the
/// 48-demand testbed6 round (after an arrival and after a withdraw). Seeds
/// are pinned so the numbers are comparable across commits. The ladder runs
/// paper-scale snapshots (48-96 concurrent demands at 8 arrivals/min):
/// sub-millisecond toy instances measured mostly fixed overhead, and the
/// presolve-vs-not comparison needs the regime the scheduler actually runs
/// in. The compare gate (tools/ci.sh bench-smoke) matches cases by name, so
/// it rides through instance-set changes on the shared names.
std::vector<Instance> build_instances() {
  std::vector<Instance> out;

  struct SchedSpec {
    const char* name;
    Topology topo;
    int demands;
    int y;
    std::uint64_t seed;
  };
  std::vector<SchedSpec> specs;
  specs.push_back({"sched_testbed6_d48", testbed6(), 48, 2, 4242});
  specs.push_back({"sched_testbed6_d96", testbed6(), 96, 2, 4243});
  specs.push_back({"sched_b4_d64_y3", b4(), 64, 3, 4244});
  specs.push_back({"sched_b4_d96_y3", b4(), 96, 3, 4245});
  specs.push_back({"sched_ibm_d64_y3", ibm(), 64, 3, 4250});
  specs.push_back({"sched_ibm_d96_y3", ibm(), 96, 3, 4251});

  for (auto& s : specs) {
    const auto catalog = TunnelCatalog::build_all_pairs(s.topo, 4);
    SchedulerConfig cfg;
    cfg.max_failures = s.y;
    TrafficScheduler sched(s.topo, catalog, cfg);
    const auto demands = seeded_demands(catalog, s.topo, s.demands, s.seed);
    out.push_back({s.name, sched.build_schedule_model(demands), {}});

    if (std::strcmp(s.name, "sched_testbed6_d48") == 0) {
      // Admission + recovery relaxations ride on the same substrate.
      out.push_back({"admission_testbed6_d48",
                     build_admission_model(sched, demands), {}});
      const std::vector<LinkId> failed = {0};
      out.push_back({"recovery_testbed6_d48",
                     build_recovery_model(s.topo, catalog, demands, failed),
                     {}});
      // The live loop's rounds: the newest demand arrives, or the oldest
      // leaves, and the LP restarts from the round before.
      const std::vector<Demand> without_newest(demands.begin(),
                                               demands.end() - 1);
      const std::vector<Demand> without_oldest(demands.begin() + 1,
                                               demands.end());
      out.push_back(restart_instance("restart_testbed6_d48_arrival", sched,
                                     without_newest, demands));
      out.push_back(restart_instance("restart_testbed6_d48_withdraw", sched,
                                     demands, without_oldest));
    }
    if (std::strcmp(s.name, "sched_b4_d64_y3") == 0) {
      out.push_back({"admission_b4_d64_y3",
                     build_admission_model(sched, demands), {}});
      const std::vector<LinkId> failed = {0, 5};
      out.push_back({"recovery_b4_d64_y3",
                     build_recovery_model(s.topo, catalog, demands, failed),
                     {}});
    }
  }
  return out;
}

/// The construct_* cases: `reps` constructions per topology, each timed in
/// wall and process CPU milliseconds.
std::vector<BenchCase> construct_cases(int reps) {
  struct Spec {
    const char* name;
    Topology topo;
  };
  std::vector<Spec> specs;
  specs.push_back({"construct_testbed6", testbed6()});
  specs.push_back({"construct_b4", b4()});
  specs.push_back({"construct_att", att()});
  specs.push_back({"construct_ibm", ibm()});
  specs.push_back({"construct_fiti", fiti()});
  std::vector<BenchCase> out;
  for (const Spec& s : specs) {
    const auto catalog = TunnelCatalog::build_all_pairs(s.topo, 4);
    SchedulerConfig cfg;
    cfg.max_failures = 3;
    std::vector<double> wall;
    std::vector<double> cpu;
    for (int r = 0; r < reps; ++r) {
      const std::clock_t c0 = std::clock();
      const auto t0 = std::chrono::steady_clock::now();
      const TrafficScheduler sched(s.topo, catalog, cfg);
      const auto t1 = std::chrono::steady_clock::now();
      const std::clock_t c1 = std::clock();
      wall.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      cpu.push_back(1e3 * static_cast<double>(c1 - c0) / CLOCKS_PER_SEC);
    }
    const double median_ms = quantile(wall, 0.5);
    const double cpu_ms = quantile(cpu, 0.5);
    std::printf("%-30s %10s %10.3f %10.3f cpu_ms %.3f, %d pairs\n", s.name, "-",
                median_ms, quantile(wall, 0.95), cpu_ms, catalog.pair_count());
    out.push_back({s.name,
                   {{"median_ms", median_ms},
                    {"p95_ms", quantile(wall, 0.95)},
                    {"cpu_ms", cpu_ms},
                    {"pairs", static_cast<double>(catalog.pair_count())}}});
  }
  return out;
}

/// The obs-overhead gate: interleaved A/B solves of one representative
/// scheduling instance with metrics on vs off. Each pair times both arms
/// back to back and the arm that runs first alternates between pairs, so
/// neither arm always inherits the other's cache state, and a host-steal
/// burst lands inside one pair's ratio instead of skewing one arm's whole
/// sample. Fails (exit 1) when the median per-pair on/off ratio exceeds
/// 1.03. The ratio of the two arms' medians is printed beside it.
///
/// Since the SLO-ledger PR each timed arm also performs one scheduling
/// round's worth of controller-side SLO work — a set_satisfied sweep over
/// the fleet (toggling, so real degrade/recover transitions are logged) and
/// one time-series sample of the registry — so the budget covers the whole
/// observability surface, not just counters and histograms.
int run_obs_overhead(int reps) {
  const Topology topo = testbed6();
  const auto catalog = TunnelCatalog::build_all_pairs(topo, 4);
  SchedulerConfig cfg;
  cfg.max_failures = 2;
  TrafficScheduler sched(topo, catalog, cfg);
  const auto demands = seeded_demands(catalog, topo, 48, 4242);
  const Model model = sched.build_schedule_model(demands);

  obs::SloLedger ledger(
      // Transition cap sized for the toggling sweep: one transition per
      // demand per timed solve, 2 arms x (reps + warmup) solves.
      obs::SloLedger::Config{/*max_transitions=*/4 * static_cast<std::size_t>(
                                 reps + 4),
                             /*max_withdrawn=*/64});
  obs::TimeSeriesStore series;
  const std::int64_t t0 = obs::now_us();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    ledger.admit(static_cast<std::int64_t>(i + 1), /*tenant=*/0, /*beta=*/0.9,
                 t0);
    ledger.allocate(static_cast<std::int64_t>(i + 1), t0);
  }
  bool flip = false;
  int solves = 0;
  const auto timed_solve = [&](const SimplexOptions& opt) {
    const auto begin = std::chrono::steady_clock::now();
    const Solution sol = solve_lp(model, opt);
    // The controller does exactly this after every scheduling round: one
    // satisfied-bit sweep over the fleet; periodically, the sampler tick
    // snapshots the registry into the ring-buffer store (a 1s period in
    // production — every 8th solve here keeps the duty cycle realistic
    // rather than charging a full snapshot to every round). Identical work
    // in both arms; only the metric increments inside differ with the
    // enabled switch.
    const std::int64_t now = obs::now_us();
    for (std::size_t i = 0; i < demands.size(); ++i) {
      ledger.set_satisfied(static_cast<std::int64_t>(i + 1), flip, now);
    }
    flip = !flip;
    if (++solves % 8 == 0) {
      series.sample(obs::Registry::global().snapshot(), now);
    }
    const auto end = std::chrono::steady_clock::now();
    if (sol.status != SolveStatus::kOptimal) std::abort();
    return std::chrono::duration<double, std::milli>(end - begin).count();
  };

  const SimplexOptions fast;
  // Warm both arms before sampling.
  obs::set_enabled(true);
  timed_solve(fast);
  obs::set_enabled(false);
  timed_solve(fast);

  std::vector<double> on_ms;
  std::vector<double> off_ms;
  std::vector<double> pair_ratios;
  for (int r = 0; r < reps; ++r) {
    const bool on_first = r % 2 == 0;
    double on = 0.0;
    double off = 0.0;
    for (const bool enabled : {on_first, !on_first}) {
      obs::set_enabled(enabled);
      (enabled ? on : off) = timed_solve(fast);
    }
    on_ms.push_back(on);
    off_ms.push_back(off);
    pair_ratios.push_back(off > 0.0 ? on / off : 1.0);
  }
  obs::set_enabled(true);

  const double on_median = quantile(on_ms, 0.5);
  const double off_median = quantile(off_ms, 0.5);
  const double ratio = quantile(pair_ratios, 0.5);
  const double ratio_of_medians =
      off_median > 0.0 ? on_median / off_median : 1.0;
  std::printf(
      "obs-overhead: median pair ratio %.4fx (limit 1.03x, %d alternating "
      "pairs); ratio of medians %.4fx (enabled %.3f ms, disabled %.3f ms)\n",
      ratio, reps, ratio_of_medians, on_median, off_median);
  if (ratio > 1.03) {
    std::fprintf(stderr,
                 "bench_solver: obs overhead %.1f%% exceeds the 3%% budget\n",
                 (ratio - 1.0) * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 7;
  bool obs_overhead = false;
  std::string out_path = "BENCH_solver.json";
  std::string trace_path;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--reps") == 0 && a + 1 < argc) {
      reps = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out_path = argv[++a];
    } else if (std::strcmp(argv[a], "--trace") == 0 && a + 1 < argc) {
      trace_path = argv[++a];
    } else if (std::strcmp(argv[a], "--obs-overhead") == 0) {
      obs_overhead = true;
    } else if (std::strcmp(argv[a], "--validate") == 0 && a + 1 < argc) {
      const std::string err = validate_bench_json(argv[a + 1]);
      if (!err.empty()) {
        std::fprintf(stderr, "bench_solver: %s: INVALID: %s\n", argv[a + 1],
                     err.c_str());
        return 1;
      }
      std::printf("bench_solver: %s: schema OK\n", argv[a + 1]);
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: bench_solver [--reps N] [--out FILE] "
                   "[--validate FILE] [--trace FILE] [--obs-overhead]\n");
      return 2;
    }
  }
  if (reps < 1) reps = 1;
  if (obs_overhead) return run_obs_overhead(std::max(reps, 9));

  auto instances = build_instances();
  BenchReport report;
  report.bench = "solver";

  std::printf("%-30s %10s %10s %10s %10s %8s %10s %6s %6s %8s\n", "instance",
              "ref_ms", "median_ms", "p95_ms", "speedup", "iters", "pivots/s",
              "rows-", "cols-", "vs_nopre");
  for (const Instance& inst : instances) {
    // Reference (pre-overhaul) engine: one timed solve.
    SimplexOptions ref;
    ref.reference_mode = true;
    const auto r0 = std::chrono::steady_clock::now();
    const Solution ref_sol = solve_lp(inst.model, ref);
    const auto r1 = std::chrono::steady_clock::now();
    const double ref_ms =
        std::chrono::duration<double, std::milli>(r1 - r0).count();

    // A restart case solves from a fresh copy of its basis every time and
    // fails the bench if the basis was not taken.
    const auto solve = [&](const SimplexOptions& opt, double& ms) {
      WarmStart warm{inst.warm, false};
      WarmStart* handle = inst.warm.empty() ? nullptr : &warm;
      const auto t0 = std::chrono::steady_clock::now();
      const Solution out = solve_lp(inst.model, opt, handle);
      const auto t1 = std::chrono::steady_clock::now();
      ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      if (handle != nullptr && !warm.used) {
        std::fprintf(stderr, "bench_solver: %s: restart fell back cold\n",
                     inst.name.c_str());
        std::exit(1);
      }
      return out;
    };

    SimplexOptions fast;
    std::vector<double> times;
    Solution sol;
    for (int r = 0; r < reps; ++r) {
      double ms = 0.0;
      sol = solve(fast, ms);
      times.push_back(ms);
    }

    // The fast engine with presolve disabled isolates how much of the
    // speedup the model reduction itself contributes (schema v2).
    SimplexOptions nopre = fast;
    nopre.presolve = false;
    std::vector<double> nopre_times;
    Solution nopre_sol;
    for (int r = 0; r < reps; ++r) {
      double ms = 0.0;
      nopre_sol = solve(nopre, ms);
      nopre_times.push_back(ms);
    }
    if (nopre_sol.status != sol.status) {
      std::fprintf(stderr,
                   "bench_solver: %s: status mismatch presolve=%d "
                   "nopresolve=%d\n",
                   inst.name.c_str(), static_cast<int>(sol.status),
                   static_cast<int>(nopre_sol.status));
      return 1;
    }

    if (sol.status != ref_sol.status) {
      std::fprintf(stderr, "bench_solver: %s: status mismatch fast=%d ref=%d\n",
                   inst.name.c_str(), static_cast<int>(sol.status),
                   static_cast<int>(ref_sol.status));
      return 1;
    }
    if (sol.status == SolveStatus::kOptimal) {
      const double denom = std::max(1.0, std::abs(ref_sol.objective));
      if (std::abs(sol.objective - ref_sol.objective) / denom > 1e-6) {
        std::fprintf(stderr,
                     "bench_solver: %s: objective mismatch fast=%.9g "
                     "ref=%.9g\n",
                     inst.name.c_str(), sol.objective, ref_sol.objective);
        return 1;
      }
    }

    const double median_ms = quantile(times, 0.5);
    const double p95_ms = quantile(times, 0.95);
    const double nopre_median_ms = quantile(nopre_times, 0.5);
    const double pivots_per_sec =
        median_ms > 0.0 ? static_cast<double>(sol.pivots) / (median_ms / 1e3)
                        : 0.0;
    const double speedup = median_ms > 0.0 ? ref_ms / median_ms : 0.0;
    const double speedup_vs_nopre =
        median_ms > 0.0 ? nopre_median_ms / median_ms : 0.0;
    const int rows = inst.model.constraint_count();
    const int cols = inst.model.variable_count();
    const double rows_removed_pct =
        rows > 0 ? 100.0 * sol.rows_removed / rows : 0.0;
    const double cols_removed_pct =
        cols > 0 ? 100.0 * sol.cols_removed / cols : 0.0;

    std::printf("%-30s %10.3f %10.3f %10.3f %9.1fx %8ld %10.0f %5.1f%% %5.1f%% %7.2fx\n",
                inst.name.c_str(), ref_ms, median_ms, p95_ms, speedup,
                sol.iterations, pivots_per_sec, rows_removed_pct,
                cols_removed_pct, speedup_vs_nopre);

    BenchCase c;
    c.name = inst.name;
    c.metrics = {
        {"rows", static_cast<double>(rows)},
        {"cols", static_cast<double>(cols)},
        {"median_ms", median_ms},
        {"p95_ms", p95_ms},
        {"reference_ms", ref_ms},
        {"speedup_vs_reference", speedup},
        {"iterations", static_cast<double>(sol.iterations)},
        {"pivots", static_cast<double>(sol.pivots)},
        {"pivots_per_sec", pivots_per_sec},
        {"rows_removed_pct", rows_removed_pct},
        {"cols_removed_pct", cols_removed_pct},
        {"presolve_us", static_cast<double>(sol.presolve_us)},
        {"nopresolve_median_ms", nopre_median_ms},
        {"speedup_vs_nopresolve", speedup_vs_nopre},
    };
    report.cases.push_back(std::move(c));
  }

  for (BenchCase& c : construct_cases(reps)) {
    report.cases.push_back(std::move(c));
  }

  // Schema v3: embed the registry view of one representative scheduling
  // solve (the first instance, re-solved against a freshly reset registry so
  // the snapshot covers exactly one solve, not the whole bench run).
  if (!instances.empty() && obs::enabled()) {
    obs::Registry::global().reset();
    solve_lp(instances.front().model, SimplexOptions{});
    report.obs_json = obs::Registry::global().dump("json");
  }

  write_bench_json(report, out_path);
  const std::string err = validate_bench_json(out_path);
  if (!err.empty()) {
    std::fprintf(stderr, "bench_solver: emitted file invalid: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cases)\n", out_path.c_str(),
              report.cases.size());

  if (!trace_path.empty()) {
    std::ofstream f(trace_path, std::ios::trunc);
    f << obs::Tracer::global().chrome_json();
    if (!f.good()) {
      std::fprintf(stderr, "bench_solver: cannot write %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_path.c_str());
  }
  return 0;
}
