#include "report.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>

#include "obs/metrics.h"
#include "topology/catalog.h"
#include "workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

using bate::Demand;

std::optional<WorkloadKind> workload_kind(const std::string& name) {
  if (name == "steady_testbed6") return WorkloadKind::kSteady;
  if (name == "contended_testbed6") return WorkloadKind::kContended;
  if (name == "flap_testbed6") return WorkloadKind::kFlap;
  return std::nullopt;
}

WorkloadRun run_workload(
    WorkloadKind kind, std::uint64_t seed, double seconds, int setups,
    const std::function<void()>& before_phase,
    const std::function<void(const std::atomic<bool>& done)>& during) {
  WorkloadRun run;
  // The generator's view of the network: pair indices only.
  const bate::Topology topo = bate::testbed6();
  const bate::TunnelCatalog catalog =
      bate::TunnelCatalog::build_all_pairs(topo, 4);
  OpenLoopPlan plan;
  std::vector<Demand> preload;
  if (kind == WorkloadKind::kFlap) {
    preload = flap_preload(catalog);
  } else {
    plan = make_open_loop(kind == WorkloadKind::kSteady ? steady_shape()
                                                        : contended_shape(),
                          catalog, seed, seconds);
    for (const Arrival& a : plan.initial) preload.push_back(a.demand);
    for (const Arrival& a : plan.arrivals) run.demands[a.demand.id] = a.demand;
  }
  for (const Demand& d : preload) run.demands[d.id] = d;

  for (int i = 0; i < setups; ++i) {
    run.stack.reset();  // tear the previous stack down before timing anew
    run.stack = std::make_unique<Stack>(preload);
    run.setups.push_back(run.stack->times());
  }
  run.preload_offered = static_cast<long>(preload.size());
  run.preload_admitted = static_cast<long>(run.stack->preloaded().size());

  if (before_phase) before_phase();
  std::atomic<bool> done{false};
  std::exception_ptr error;
  std::thread generator([&] {
    pin_to_load_cpu();
    try {
      run.phase = kind == WorkloadKind::kFlap
                      ? run_flap(*run.stack, seed, seconds)
                      : run_open_loop(*run.stack, plan, seconds);
    } catch (...) {
      error = std::current_exception();
    }
    done = true;
  });
  if (during) during(done);
  generator.join();
  if (error) std::rethrow_exception(error);

  // End-of-run checks that read the brokers and the ledger. With links
  // down at the end of a flap run, backup rows may rightly carry less.
  if (kind == WorkloadKind::kFlap) {
    if (run.preload_admitted != run.preload_offered) {
      run.phase.violations.push_back(
          "flap preload: only " + std::to_string(run.preload_admitted) +
          " of " + std::to_string(run.preload_offered) + " demands admitted");
    }
  } else {
    std::vector<Demand> live;
    for (const bate::DemandId id : run.phase.live) live.push_back(run.demands.at(id));
    Stack& stack = *run.stack;
    for (const std::string& v : check_enforced(
             live, kBrokers, [&stack](int b, bate::DemandId id, int pair) {
               return stack.rates(b, id, pair);
             })) {
      run.phase.violations.push_back("at run end: " + v);
    }
  }
  for (const bate::DemandId id : run.phase.withdrawn) {
    const Demand& d = run.demands.at(id);
    for (const bate::PairDemand& p : d.pairs) {
      if (run.stack->broker(0).enforced_total(id, p.pair) > 0.0) {
        ++run.stale_rows;
        break;
      }
    }
  }
  run.slo = crosscheck_slo(run.stack->user().slo(), run.phase.live);
  return run;
}

E2eLatencies e2e_latencies(WorkloadKind kind, const PhaseResult& phase) {
  E2eLatencies out;
  if (kind == WorkloadKind::kFlap) {
    out.reply_us = latencies_from_due_us(phase.link_reply);
    out.enforce_us = latencies_from_due_us(phase.failover);
    const std::vector<double> restore = latencies_from_due_us(phase.restore);
    out.enforce_us.insert(out.enforce_us.end(), restore.begin(), restore.end());
  } else {
    out.reply_us = latencies_from_due_us(phase.submit_reply);
    out.enforce_us = latencies_from_due_us(phase.submit_enforce);
  }
  return out;
}

void add_run_checks(RunReport& report, const WorkloadRun& run) {
  for (const std::string& v : run.phase.violations) report.violations.push_back(v);
  for (const std::string& v : run.slo.violations) {
    report.violations.push_back("slo crosscheck: " + v);
  }
  if (run.slo.replayed == 0) {
    report.violations.push_back("slo crosscheck: no ledger row was replayable");
  }
  if (!report.violations.empty()) report.correct = false;
  report.attempted = std::max<long>(1, run.phase.events);
  report.failed = run.phase.failed;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set of the process, MB.
double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Adds percentile `q` of `values` as metric `name`, or records a violation
/// when the sample is too small for the tail rule.
void add_percentile(RunReport& report, std::vector<Metric>& into,
                    const std::string& name, const std::vector<double>& values,
                    double q, const std::string& unit) {
  const std::optional<double> v = percentile(values, q);
  if (!v) {
    report.correct = false;
    report.violations.push_back(name + ": " + std::to_string(values.size()) +
                                " samples, need " +
                                std::to_string(min_samples_for(q)));
    return;
  }
  into.push_back({name, *v, unit});
}


std::vector<double> setup_totals(const WorkloadRun& run) {
  std::vector<double> out;
  for (const SetupTimes& t : run.setups) out.push_back(t.total_s());
  return out;
}

}  // namespace

RunReport run_untraced(WorkloadKind kind, std::uint64_t seed, double seconds,
                       int setups) {
  RunReport report;
  report.seed = seed;
  WorkloadRun run = run_workload(kind, seed, seconds, setups);
  const PhaseResult& ph = run.phase;
  add_run_checks(report, run);

  const E2eLatencies lat = e2e_latencies(kind, ph);
  auto& m = report.metrics;
  m.push_back({"setup_s", median(setup_totals(run)), "s"});
  const double admit_ratio =
      kind == WorkloadKind::kFlap
          ? ratio(static_cast<double>(run.preload_admitted),
                  static_cast<double>(run.preload_offered))
          : ratio(static_cast<double>(ph.admitted),
                  static_cast<double>(ph.offered));
  m.push_back({"admit_ratio", admit_ratio, "1"});
  m.push_back({"cpu_ms_per_event",
               ratio(ph.cpu_s * 1e3, static_cast<double>(ph.events)), "ms"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});

  // Latencies: printed, not gated. Host steal stretches wall-clock time
  // from minute to minute, so their run-to-run spread on a shared VM is
  // wider than any bound a gate may use; CPU time per event is gated.
  auto& d = report.details;
  add_percentile(report, d, "enforce_p50_us", lat.enforce_us, 0.5, "us");
  add_percentile(report, d, "reply_p50_us", lat.reply_us, 0.5, "us");
  add_percentile(report, d, "reply_p90_us", lat.reply_us, 0.9, "us");
  add_percentile(report, d, "enforce_p90_us", lat.enforce_us, 0.9, "us");
  if (kind == WorkloadKind::kFlap) {
    const auto failover = latencies_from_due_us(ph.failover);
    add_percentile(report, d, "failover_p50_us", failover, 0.5, "us");
    add_percentile(report, d, "failover_p90_us", failover, 0.9, "us");
    add_percentile(report, d, "restore_p50_us",
                   latencies_from_due_us(ph.restore), 0.5, "us");
    d.push_back({"failover_whole_ratio", median(ph.whole_ratios), "1"});
    d.push_back({"link_reports", static_cast<double>(ph.link_reports), "count"});
  } else {
    add_percentile(report, d, "submit_reply_p50_us", lat.reply_us, 0.5, "us");
    add_percentile(report, d, "submit_reply_p90_us", lat.reply_us, 0.9, "us");
    add_percentile(report, d, "submit_enforce_p50_us", lat.enforce_us, 0.5, "us");
    add_percentile(report, d, "submit_enforce_p90_us", lat.enforce_us, 0.9, "us");
    d.push_back({"offered", static_cast<double>(ph.offered), "count"});
    d.push_back({"withdraws", static_cast<double>(ph.withdraws), "count"});
  }
  d.push_back({"failed_ratio",
               ratio(static_cast<double>(ph.failed),
                     static_cast<double>(report.attempted)),
               "1"});
  const std::optional<double> lag = percentile(
      generator_lag_us(kind == WorkloadKind::kFlap ? ph.link_reply
                                                   : ph.submit_reply),
      0.9);
  d.push_back({"gen_lag_p90_us", lag.value_or(0.0), "us"});
  d.push_back({"slo_rows_replayed", static_cast<double>(run.slo.replayed), "count"});
  d.push_back({"slo_rows_truncated", static_cast<double>(run.slo.truncated), "count"});
  d.push_back({"slo_rows_degraded", static_cast<double>(run.slo.degraded), "count"});
  d.push_back({"slo_max_abs_err", run.slo.max_abs_err, "1"});
  d.push_back({"stale_rows", static_cast<double>(run.stale_rows), "count"});
  return report;
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void print_report(const std::string& workload, const RunReport& report) {
  const char* source = std::getenv("PERFBENCH_SOURCE_ID");
  std::printf("provenance seed=%llu nproc=%u build_type=%s source=%s\n",
              static_cast<unsigned long long>(report.seed),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              source != nullptr ? source : "unknown");
  for (const std::string& n : report.notes) std::printf("note %s\n", n.c_str());
  for (const Metric& m : report.details) {
    std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("%s %s %s %s\n", workload.c_str(), m.name.c_str(),
                json_number(m.value).c_str(), m.unit.c_str());
  }
  for (const std::string& v : report.violations) {
    std::printf("CHECK FAILED %s\n", v.c_str());
  }
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : report.metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
