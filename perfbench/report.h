// One benchmark run: set-up repeated and timed, the timed phase, the output
// checks, and the metrics it reports.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "checks.h"
#include "live.h"

namespace perfbench {

enum class WorkloadKind { kSteady, kContended, kFlap };

std::optional<WorkloadKind> workload_kind(const std::string& name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  /// The metrics of the final JSON line (end-to-end with --trace 0,
  /// per-layer with --trace 1).
  std::vector<Metric> metrics;
  /// Printed by name and unit, not part of the JSON line.
  std::vector<Metric> details;
  /// Printed as "note ..." lines, e.g. for a layer idle in this workload.
  std::vector<std::string> notes;
  std::vector<std::string> violations;
  std::uint64_t seed = 0;
};

/// A workload run against a live stack.
struct WorkloadRun {
  std::vector<SetupTimes> setups;
  std::unique_ptr<Stack> stack;  // the stack of the timed phase, still up
  PhaseResult phase;
  long preload_offered = 0;
  long preload_admitted = 0;
  SloCrosscheck slo;
  long stale_rows = 0;  // withdrawn demands still enforced at broker 0
  /// Every demand the run offered, preload included, by id.
  std::map<bate::DemandId, bate::Demand> demands;
};

/// Builds the stack `setups` times (keeping the last), calls `before_phase`,
/// runs the timed phase on a generator thread while the calling thread runs
/// `during` (which must return once `done` is set), then runs the
/// end-of-run checks.
WorkloadRun run_workload(
    WorkloadKind kind, std::uint64_t seed, double seconds, int setups,
    const std::function<void()>& before_phase = {},
    const std::function<void(const std::atomic<bool>& done)>& during = {});

/// The timed operations' latencies as the end-to-end metrics name them:
/// reply = the requester's first answer, enforce = the effect applied at
/// both brokers (see README.md for the per-workload mapping).
struct E2eLatencies {
  std::vector<double> reply_us;
  std::vector<double> enforce_us;
};
E2eLatencies e2e_latencies(WorkloadKind kind, const PhaseResult& phase);

/// --trace 0: the end-to-end metrics.
RunReport run_untraced(WorkloadKind kind, std::uint64_t seed, double seconds,
                       int setups);

/// Copies the run's check violations and its attempted and failed counts
/// into `report`.
void add_run_checks(RunReport& report, const WorkloadRun& run);

/// Prints the details and metrics by name and unit, then the JSON line.
void print_report(const std::string& workload, const RunReport& report);

}  // namespace perfbench
