// System churn bench: demand arrivals against a LIVE controller + brokers
// over loopback TCP, measuring the admission pipeline end to end — framing,
// epoll, per-tenant queueing, the batched admission drain, reply batching
// and the allocation broadcast to brokers (DESIGN.md Sec 10).
//
// The churn case drives the pipeline: N tiny demands (90% best-effort
// beta=0, 10% beta=0.9) pipelined from 4 tenant clients with a 256-deep
// window each; the controller drains whole batches per tick with
// reschedule_after_batch off (the high-churn configuration, where greedy
// admissions delta-broadcast and the solve cost stays O(arrival); a round
// per batch grows with the admitted set, ROADMAP item 3). No backup plan is
// computed ahead in either case: the controller runs Algorithm 2 only when
// a link report leaves a loaded link down. Reports sustained admissions/sec
// and the controller-side p50/p99 reply latency from the obs registry
// histogram (bate_admission_reply_latency_us).
//
// A second case exercises the availability-SLO ledger:
//
//  * slo — chaos run: demands admitted through the pipeline, then a broker
//    flaps the links that cut DC6 off, down/up, while the controller's
//    ledger accrues degraded / recovered windows; a slice of demands is
//    withdrawn. The ledger is then scraped over the kSloRequest RPC and
//    every reported availability is cross-checked against an independent
//    replay of that demand's transition log through a fresh
//    obs::AvailabilityMeter — the same arithmetic src/sim uses — and must
//    agree within 1e-9 (slo_crosscheck_max_abs_err).
//
// Usage:
//   bench_system [--arrivals N] [--slo-arrivals N]
//                [--reps N] [--out BENCH_system.json] [--validate FILE]
//                [--serve SEC --port-file PATH]
//
// --serve starts the controller + brokers, admits the slo workload, keeps
// flapping the DC6 links for SEC seconds while writing the controller's
// port to PATH, so an external scraper (tools/ci.sh runs
// `bate_top --once --check`) can poll a live stack.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "common.h"
#include "core/admission.h"
#include "json_mini.h"
#include "obs/availability.h"
#include "obs/metrics.h"
#include "system/broker.h"
#include "system/client.h"
#include "system/controller.h"
#include "topology/catalog.h"
#include "workload/demand.h"

namespace {

using namespace bate;

constexpr int kClients = 4;
constexpr std::size_t kWindow = 256;

/// Tiny churn demand: one pair, 0.01 Mbps, 90% best-effort / 10% with a
/// 0.9 availability target. Deterministic in `i` so every run sees the
/// same arrival mix.
Demand churn_demand(int i, int pair_count) {
  Demand d;
  d.id = i + 1;
  d.pairs = {{i % pair_count, 0.01}};
  d.availability_target = (i % 10 == 9) ? 0.9 : 0.0;
  d.charge = 0.01;
  d.refund_fraction = 0.1;
  d.duration_minutes = 10.0;
  return d;
}

struct CaseResult {
  double elapsed_s = 0.0;
  long admitted = 0;
  long rejected = 0;
  long shed = 0;
  double p50_reply_us = 0.0;
  double p99_reply_us = 0.0;
};

/// One full controller+brokers lifecycle over `arrivals` demands spread
/// across `clients` tenant connections. The registry is reset before the
/// run so the reply-latency histogram holds exactly this case's samples.
CaseResult run_case(const Topology& topo, const TunnelCatalog& catalog,
                    int arrivals, int clients) {
  // Scoped so this case neither sees earlier cases' histogram samples nor
  // leaks its own into the slo case's coverage check.
  const obs::ScopedRegistryReset reset_registry;

  ControllerConfig cfg;
  cfg.tick_ms = 1;
  cfg.max_queue = 1 << 15;
  cfg.reschedule_after_batch = false;
  Controller controller(topo, catalog, SchedulerConfig{},
                        AdmissionStrategy::kBate, cfg);
  controller.start();
  Broker b0(0, controller.port());
  Broker b1(1, controller.port());
  b0.start();
  b1.start();

  // Pre-build per-client slices (round-robin by arrival index, so tenants
  // interleave like concurrent arrival streams).
  std::vector<std::vector<Demand>> slices(static_cast<std::size_t>(clients));
  for (int i = 0; i < arrivals; ++i) {
    slices[static_cast<std::size_t>(i % clients)].push_back(
        churn_demand(i, catalog.pair_count()));
  }

  std::vector<long> admitted(static_cast<std::size_t>(clients), 0);
  std::vector<long> rejected(static_cast<std::size_t>(clients), 0);
  std::vector<long> shed(static_cast<std::size_t>(clients), 0);
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      UserClient user(controller.port(), /*tenant=*/100 + c);
      const auto replies = user.submit_many(slices[static_cast<std::size_t>(c)],
                                            kWindow);
      for (const auto& r : replies) {
        switch (r.status) {
          case AdmissionStatus::kAdmitted:
            ++admitted[static_cast<std::size_t>(c)];
            break;
          case AdmissionStatus::kShed:
            ++shed[static_cast<std::size_t>(c)];
            break;
          default:
            ++rejected[static_cast<std::size_t>(c)];
            break;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();

  CaseResult res;
  res.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  for (int c = 0; c < clients; ++c) {
    res.admitted += admitted[static_cast<std::size_t>(c)];
    res.rejected += rejected[static_cast<std::size_t>(c)];
    res.shed += shed[static_cast<std::size_t>(c)];
  }
  const obs::MetricsSnapshot snap = obs::Registry::global().snapshot();
  for (const auto& [name, h] : snap.histograms) {
    if (name == "bate_admission_reply_latency_us") {
      res.p50_reply_us = h.quantile(0.5);
      res.p99_reply_us = h.quantile(0.99);
    }
  }

  // Controller first: its final broadcasts must not race the brokers'
  // socket shutdown (harmless, but logs a broken-pipe warning).
  controller.stop();
  b0.stop();
  b1.stop();
  return res;
}

/// SLO-case demand: one pair, 0.1 Mbps, a three-way availability-target mix
/// (0.99 / 0.9 / best-effort) so the ledger rolls up tenants with different
/// error budgets. Deterministic in `i`.
Demand slo_demand(int i, int pair_count) {
  Demand d;
  d.id = i + 1;
  d.pairs = {{i % pair_count, 0.1}};
  d.availability_target = (i % 3 == 0) ? 0.99 : (i % 3 == 1 ? 0.9 : 0.0);
  d.charge = 0.01;
  d.refund_fraction = 0.1;
  d.duration_minutes = 10.0;
  return d;
}

ControllerConfig slo_controller_config() {
  ControllerConfig cfg;
  cfg.tick_ms = 1;
  cfg.max_queue = 1 << 15;
  cfg.reschedule_after_batch = false;
  // Fast sampling so even the short chaos run lands ring-buffer points for
  // the series half of the payload.
  cfg.slo_sample_period_ms = 20;
  return cfg;
}

/// The four directed links of testbed6's L7 (DC5-DC6) and L8 (DC1-DC6):
/// every link DC6 has.
std::vector<LinkId> dc6_links(const Topology& topo) {
  return {topo.find_link(4, 5), topo.find_link(5, 4), topo.find_link(0, 5),
          topo.find_link(5, 0)};
}

/// Takes `links` down one after another, so the failures overlap, then
/// repairs them, pausing `dwell_ms` after every report. Brokers enforce a
/// backup plan over exactly the down set, which keeps every demand whole
/// while one of its tunnels survives; the ledger accrues degraded windows
/// because the DC6 set cuts a DC off, leaving demands to or from it no
/// tunnel at all until a link comes back.
void flap_links(Broker& b, std::span<const LinkId> links, int dwell_ms) {
  for (const LinkId link : links) {
    b.report_link(link, false);
    std::this_thread::sleep_for(std::chrono::milliseconds(dwell_ms));
  }
  for (const LinkId link : links) {
    b.report_link(link, true);
    std::this_thread::sleep_for(std::chrono::milliseconds(dwell_ms));
  }
}

struct SloCaseResult {
  long admitted = 0;
  std::size_t rows = 0;
  double max_abs_err = 0.0;
  double min_availability = 1.0;
  double mean_availability = 0.0;
  double worst_burn = 0.0;
  long degraded = 0;
  bool ok = false;
  std::string error;
};

/// Replays every reported transition log through a fresh AvailabilityMeter
/// (the same arithmetic src/sim/metrics uses) and compares the result with
/// the controller's own accounting. Any divergence beyond 1e-9 — or a
/// truncated log, or a demand missing from the ledger — fails the case.
void crosscheck_slo(const std::string& payload, SloCaseResult* res) {
  json::JsonValue root;
  try {
    root = json::parse(payload);
  } catch (const std::exception& e) {
    res->error = std::string("slo payload does not parse: ") + e.what();
    return;
  }
  const json::JsonValue* ledger = root.find("ledger");
  if (ledger == nullptr || ledger->kind != json::JsonValue::Kind::kObject) {
    res->error = "slo payload has no ledger object";
    return;
  }
  const json::JsonValue* demands = ledger->find("demands");
  const json::JsonValue* now = ledger->find("now_us");
  if (demands == nullptr || demands->kind != json::JsonValue::Kind::kArray ||
      now == nullptr) {
    res->error = "ledger payload missing demands/now_us";
    return;
  }
  res->rows = demands->array.size();
  if (static_cast<long>(res->rows) != res->admitted) {
    res->error = "ledger covers " + std::to_string(res->rows) +
                 " demands, admitted " + std::to_string(res->admitted);
    return;
  }
  const auto now_us = static_cast<std::int64_t>(now->number);
  const auto num = [](const json::JsonValue& obj, const char* key) {
    const json::JsonValue* v = obj.find(key);
    return v != nullptr ? v->number : 0.0;
  };
  double sum_avail = 0.0;
  for (const json::JsonValue& d : demands->array) {
    if (num(d, "dropped_transitions") != 0.0) {
      res->error = "transition log truncated for demand " +
                   std::to_string(static_cast<long long>(num(d, "id")));
      return;
    }
    const json::JsonValue* transitions = d.find("transitions");
    obs::AvailabilityMeter meter;
    bool saw_degraded = false;
    if (transitions != nullptr) {
      for (const json::JsonValue& t : transitions->array) {
        const auto t_us = static_cast<std::int64_t>(num(t, "t_us"));
        const json::JsonValue* state = t.find("state");
        const std::string s =
            state != nullptr ? state->str : std::string("?");
        if (s == "admitted") {
          meter.start(t_us, /*satisfied=*/true);
        } else if (s == "degraded") {
          meter.set_satisfied(t_us, false);
          saw_degraded = true;
        } else if (s == "recovered") {
          meter.set_satisfied(t_us, true);
        } else if (s == "withdrawn") {
          meter.finalize(t_us);
        }
        // "allocated" changes lifecycle state only, not the satisfied bit.
      }
    }
    if (static_cast<double>(meter.active_us_at(now_us)) !=
            num(d, "active_us") ||
        static_cast<double>(meter.satisfied_us_at(now_us)) !=
            num(d, "satisfied_us")) {
      res->error = "replayed active/satisfied mismatch for demand " +
                   std::to_string(static_cast<long long>(num(d, "id")));
      return;
    }
    const double avail = num(d, "availability");
    const double err = std::fabs(meter.availability_at(now_us) - avail);
    res->max_abs_err = std::max(res->max_abs_err, err);
    res->min_availability = std::min(res->min_availability, avail);
    sum_avail += avail;
    res->worst_burn = std::max(res->worst_burn, num(d, "budget_burn"));
    if (saw_degraded) ++res->degraded;
  }
  res->mean_availability =
      res->rows > 0 ? sum_avail / static_cast<double>(res->rows) : 0.0;
  if (res->max_abs_err > 1e-9) {
    res->error = "availability crosscheck err " +
                 std::to_string(res->max_abs_err) + " exceeds 1e-9";
    return;
  }
  res->ok = true;
}

/// Chaos run against a live stack: admit, flap links, withdraw a slice,
/// scrape the kSloRequest RPC and cross-check every row.
SloCaseResult run_slo_case(const Topology& topo, const TunnelCatalog& catalog,
                           int arrivals) {
  const obs::ScopedRegistryReset reset_registry;
  Controller controller(topo, catalog, SchedulerConfig{},
                        AdmissionStrategy::kBate, slo_controller_config());
  controller.start();
  Broker b0(0, controller.port());
  Broker b1(1, controller.port());
  b0.start();
  b1.start();

  SloCaseResult res;
  {
    UserClient user(controller.port(), /*tenant=*/100);
    std::vector<Demand> demands;
    demands.reserve(static_cast<std::size_t>(arrivals));
    for (int i = 0; i < arrivals; ++i) {
      demands.push_back(slo_demand(i, catalog.pair_count()));
    }
    std::vector<DemandId> admitted_ids;
    for (const auto& r : user.submit_many(demands, kWindow)) {
      if (r.admitted()) admitted_ids.push_back(r.id);
    }
    res.admitted = static_cast<long>(admitted_ids.size());

    flap_links(b0, dc6_links(topo), /*dwell_ms=*/40);

    // Withdraw a tail slice: those meters must freeze at finalize time.
    const std::size_t withdrawn = admitted_ids.size() / 10;
    for (std::size_t i = admitted_ids.size() - withdrawn;
         i < admitted_ids.size(); ++i) {
      user.withdraw(admitted_ids[i]);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(60));

    crosscheck_slo(user.slo(), &res);
  }

  controller.stop();
  b0.stop();
  b1.stop();
  return res;
}

/// --serve: keep a chaos stack alive for `seconds` so an external scraper
/// (tools/ci.sh runs bate_top) can poll it. The controller port is written
/// to `port_file` once the workload is admitted.
int serve_stack(const Topology& topo, const TunnelCatalog& catalog,
                int arrivals, int seconds, const std::string& port_file) {
  obs::Registry::global().reset();
  Controller controller(topo, catalog, SchedulerConfig{},
                        AdmissionStrategy::kBate, slo_controller_config());
  controller.start();
  Broker b0(0, controller.port());
  Broker b1(1, controller.port());
  b0.start();
  b1.start();

  UserClient user(controller.port(), /*tenant=*/100);
  std::vector<Demand> demands;
  demands.reserve(static_cast<std::size_t>(arrivals));
  for (int i = 0; i < arrivals; ++i) {
    demands.push_back(slo_demand(i, catalog.pair_count()));
  }
  long admitted = 0;
  for (const auto& r : user.submit_many(demands, kWindow)) {
    if (r.admitted()) ++admitted;
  }

  {
    // Port published only after admission, so a scraper that sees the file
    // also sees a populated ledger.
    std::ofstream f(port_file, std::ios::trunc);
    f << controller.port() << "\n";
    if (!f.good()) {
      std::fprintf(stderr, "bench_system: cannot write %s\n",
                   port_file.c_str());
      return 1;
    }
  }
  std::printf("bench_system: serving port %u (%ld admitted) for %ds\n",
              controller.port(), admitted, seconds);
  std::fflush(stdout);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    flap_links(b0, dc6_links(topo), /*dwell_ms=*/50);
  }

  controller.stop();
  b0.stop();
  b1.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  int arrivals = 100000;
  int slo_arrivals = 1500;
  int reps = 1;
  int serve_s = 0;
  std::string out_path = "BENCH_system.json";
  std::string port_file;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--arrivals") == 0 && a + 1 < argc) {
      arrivals = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--slo-arrivals") == 0 && a + 1 < argc) {
      slo_arrivals = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--reps") == 0 && a + 1 < argc) {
      reps = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--serve") == 0 && a + 1 < argc) {
      serve_s = std::atoi(argv[++a]);
    } else if (std::strcmp(argv[a], "--port-file") == 0 && a + 1 < argc) {
      port_file = argv[++a];
    } else if (std::strcmp(argv[a], "--out") == 0 && a + 1 < argc) {
      out_path = argv[++a];
    } else if (std::strcmp(argv[a], "--validate") == 0 && a + 1 < argc) {
      const std::string err = validate_bench_json(argv[a + 1]);
      if (!err.empty()) {
        std::fprintf(stderr, "bench_system: %s: INVALID: %s\n", argv[a + 1],
                     err.c_str());
        return 1;
      }
      std::printf("bench_system: %s: schema OK\n", argv[a + 1]);
      return 0;
    } else {
      std::fprintf(stderr,
                   "usage: bench_system [--arrivals N] "
                   "[--slo-arrivals N] [--reps N] [--out FILE] "
                   "[--validate FILE] [--serve SEC --port-file PATH]\n");
      return 2;
    }
  }
  if (arrivals < 1) arrivals = 1;
  if (slo_arrivals < 1) slo_arrivals = 1;
  if (reps < 1) reps = 1;

  obs::set_enabled(true);
  const Topology topo = testbed6();
  const TunnelCatalog catalog = TunnelCatalog::build_all_pairs(topo, 4);

  if (serve_s > 0) {
    if (port_file.empty()) {
      std::fprintf(stderr, "bench_system: --serve requires --port-file\n");
      return 2;
    }
    return serve_stack(topo, catalog, slo_arrivals, serve_s, port_file);
  }

  // Best-of-reps for the churn case.
  CaseResult batched;
  double best_rate = -1.0;
  for (int r = 0; r < reps; ++r) {
    const CaseResult cur = run_case(topo, catalog, arrivals, kClients);
    const double rate =
        cur.elapsed_s > 0.0 ? cur.admitted / cur.elapsed_s : 0.0;
    if (rate > best_rate) {
      best_rate = rate;
      batched = cur;
    }
  }
  const SloCaseResult slo = run_slo_case(topo, catalog, slo_arrivals);
  if (!slo.ok) {
    std::fprintf(stderr, "bench_system: slo case FAILED: %s\n",
                 slo.error.c_str());
    return 1;
  }

  const double admissions_per_sec =
      batched.elapsed_s > 0.0 ? batched.admitted / batched.elapsed_s : 0.0;
  const double arrivals_per_sec =
      batched.elapsed_s > 0.0 ? arrivals / batched.elapsed_s : 0.0;

  std::printf("%-10s %9s %10s %10s %8s %12s %12s\n", "case", "arrivals",
              "admitted", "adm/s", "shed", "p50_us", "p99_us");
  std::printf("%-10s %9d %10ld %10.0f %8ld %12.0f %12.0f\n", "batched",
              arrivals, batched.admitted, admissions_per_sec, batched.shed,
              batched.p50_reply_us, batched.p99_reply_us);
  std::printf(
      "slo: %ld demands, %ld degraded at least once, crosscheck max err "
      "%.3g, availability min %.6f mean %.6f, worst burn %.3f\n",
      slo.admitted, slo.degraded, slo.max_abs_err, slo.min_availability,
      slo.mean_availability, slo.worst_burn);

  BenchReport report;
  report.bench = "system";
  {
    BenchCase c;
    c.name = "churn_testbed6_batched";
    c.metrics = {
        {"arrivals", static_cast<double>(arrivals)},
        {"clients", static_cast<double>(kClients)},
        {"admitted", static_cast<double>(batched.admitted)},
        {"rejected", static_cast<double>(batched.rejected)},
        {"shed", static_cast<double>(batched.shed)},
        {"elapsed_s", batched.elapsed_s},
        {"admissions_per_sec", admissions_per_sec},
        {"arrivals_per_sec", arrivals_per_sec},
        {"p50_reply_us", batched.p50_reply_us},
        {"p99_reply_us", batched.p99_reply_us},
    };
    report.cases.push_back(std::move(c));
  }
  {
    BenchCase c;
    c.name = "slo_chaos_testbed6";
    c.metrics = {
        {"slo_demands", static_cast<double>(slo.admitted)},
        {"slo_degraded_demands", static_cast<double>(slo.degraded)},
        {"slo_crosscheck_max_abs_err", slo.max_abs_err},
        {"slo_min_availability", slo.min_availability},
        {"slo_mean_availability", slo.mean_availability},
        {"slo_worst_burn", slo.worst_burn},
    };
    report.cases.push_back(std::move(c));
  }
  report.obs_json.clear();

  write_bench_json(report, out_path);
  const std::string err = validate_bench_json(out_path);
  if (!err.empty()) {
    std::fprintf(stderr, "bench_system: emitted file invalid: %s\n",
                 err.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu cases)\n", out_path.c_str(),
              report.cases.size());
  return 0;
}
