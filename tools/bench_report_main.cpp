// CLI front end for tools/bench_report.h: validate a BENCH_*.json file or
// diff two of them for perf regressions.
//
// Usage:
//   bench_report --validate FILE
//   bench_report --compare OLD.json NEW.json [--max-regress X]
//                [--metric NAME]
//   bench_report --min FILE --metric NAME --floor X
//   bench_report --max FILE --metric NAME --ceiling X
//
// --compare exits 1 when the median per-case growth of NEW over OLD in the
// chosen metric (default `median_ms`) exceeds the allowed regression
// (default 0.2 = 20%); the CI bench-smoke leg runs it against the committed
// baselines on every push — timing metrics for the solver bench, `nodes`
// and `warm_median_ms` for the MILP bench.
//
// --min exits 1 when any case carrying the metric falls below the floor:
// the higher-is-better absolute gate (the system bench's
// admissions_per_sec and slo_demands).
//
// --max is the mirror image for lower-is-better absolute metrics: exit 1
// when any case carrying the metric exceeds the ceiling (the system
// bench's p99 reply latency).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_report.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_report --validate FILE\n"
               "       bench_report --compare OLD.json NEW.json "
               "[--max-regress X] [--metric NAME]\n"
               "       bench_report --min FILE --metric NAME --floor X\n"
               "       bench_report --max FILE --metric NAME --ceiling X\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  if (std::strcmp(argv[1], "--validate") == 0) {
    if (argc != 3) return usage();
    const std::string err = bate::validate_bench_json(argv[2]);
    if (!err.empty()) {
      std::fprintf(stderr, "bench_report: %s: INVALID: %s\n", argv[2],
                   err.c_str());
      return 1;
    }
    std::printf("bench_report: %s: schema OK\n", argv[2]);
    return 0;
  }

  if (std::strcmp(argv[1], "--compare") == 0) {
    if (argc < 4) return usage();
    const std::string old_path = argv[2];
    const std::string new_path = argv[3];
    double max_regress = 0.2;
    std::string metric = "median_ms";
    for (int a = 4; a < argc; ++a) {
      if (std::strcmp(argv[a], "--max-regress") == 0 && a + 1 < argc) {
        max_regress = std::atof(argv[++a]);
        if (max_regress < 0.0) return usage();
      } else if (std::strcmp(argv[a], "--metric") == 0 && a + 1 < argc) {
        metric = argv[++a];
        if (metric.empty()) return usage();
      } else {
        return usage();
      }
    }
    const bate::BenchCompareResult res =
        bate::compare_bench_json(old_path, new_path, max_regress, metric);
    std::printf("bench_report: %s -> %s\n%s", old_path.c_str(),
                new_path.c_str(), res.report.c_str());
    if (!res.ok) {
      std::fprintf(stderr, "bench_report: REGRESSION (or unreadable input)\n");
      return 1;
    }
    std::printf("bench_report: OK\n");
    return 0;
  }

  if (std::strcmp(argv[1], "--min") == 0) {
    if (argc < 3) return usage();
    const std::string path = argv[2];
    std::string metric;
    double floor = 0.0;
    bool have_floor = false;
    for (int a = 3; a < argc; ++a) {
      if (std::strcmp(argv[a], "--metric") == 0 && a + 1 < argc) {
        metric = argv[++a];
        if (metric.empty()) return usage();
      } else if (std::strcmp(argv[a], "--floor") == 0 && a + 1 < argc) {
        floor = std::atof(argv[++a]);
        have_floor = true;
      } else {
        return usage();
      }
    }
    if (metric.empty() || !have_floor) return usage();
    const bate::BenchMinResult res =
        bate::check_bench_min(path, metric, floor);
    std::printf("bench_report: %s\n%s", path.c_str(), res.report.c_str());
    if (!res.ok) {
      std::fprintf(stderr,
                   "bench_report: BELOW FLOOR (or unreadable input)\n");
      return 1;
    }
    std::printf("bench_report: OK\n");
    return 0;
  }

  if (std::strcmp(argv[1], "--max") == 0) {
    if (argc < 3) return usage();
    const std::string path = argv[2];
    std::string metric;
    double ceiling = 0.0;
    bool have_ceiling = false;
    for (int a = 3; a < argc; ++a) {
      if (std::strcmp(argv[a], "--metric") == 0 && a + 1 < argc) {
        metric = argv[++a];
        if (metric.empty()) return usage();
      } else if (std::strcmp(argv[a], "--ceiling") == 0 && a + 1 < argc) {
        ceiling = std::atof(argv[++a]);
        have_ceiling = true;
      } else {
        return usage();
      }
    }
    if (metric.empty() || !have_ceiling) return usage();
    const bate::BenchMaxResult res =
        bate::check_bench_max(path, metric, ceiling);
    std::printf("bench_report: %s\n%s", path.c_str(), res.report.c_str());
    if (!res.ok) {
      std::fprintf(stderr,
                   "bench_report: OVER CEILING (or unreadable input)\n");
      return 1;
    }
    std::printf("bench_report: OK\n");
    return 0;
  }

  return usage();
}
