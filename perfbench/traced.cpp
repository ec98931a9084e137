#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <map>
#include <set>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay.h"
#include "stats.h"
#include "topology/catalog.h"

namespace perfbench {

// --- Chrome trace parsing ---------------------------------------------------

namespace {

/// Reads the integer after `key` at or past `pos`, stopping at `limit`.
bool read_field(const std::string& json, const char* key, std::size_t& pos,
                std::size_t limit, std::uint64_t* out) {
  const std::size_t at = json.find(key, pos);
  if (at == std::string::npos || at > limit) return false;
  pos = at + std::char_traits<char>::length(key);
  *out = std::strtoull(json.c_str() + pos, nullptr, 10);
  return true;
}

}  // namespace

std::vector<SpanRec> parse_chrome_events(const std::string& json) {
  // The renderer's key order is fixed (name, cat, ph, ts, dur, pid, tid,
  // then args{trace, span, parent} for context-carrying spans), so a
  // forward scan per event is enough; names carry no escapes.
  static constexpr char kOpen[] = "{\"name\":\"";
  std::vector<SpanRec> out;
  std::size_t pos = json.find(kOpen);
  while (pos != std::string::npos) {
    const std::size_t name_at = pos + sizeof(kOpen) - 1;
    const std::size_t name_end = json.find('"', name_at);
    if (name_end == std::string::npos) break;
    const std::size_t next = json.find(kOpen, name_end);
    const std::size_t limit = next == std::string::npos ? json.size() : next;
    SpanRec s;
    s.name = json.substr(name_at, name_end - name_at);
    std::size_t cur = name_end;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::uint64_t tid = 0;
    if (read_field(json, "\"ts\":", cur, limit, &ts) &&
        read_field(json, "\"dur\":", cur, limit, &dur) &&
        read_field(json, "\"tid\":", cur, limit, &tid)) {
      s.ts_us = static_cast<std::int64_t>(ts);
      s.dur_us = static_cast<std::int64_t>(dur);
      s.tid = static_cast<std::uint32_t>(tid);
      if (read_field(json, "\"trace\":", cur, limit, &s.trace)) {
        read_field(json, "\"span\":", cur, limit, &s.span);
        read_field(json, "\"parent\":", cur, limit, &s.parent);
      }
      out.push_back(std::move(s));
    }
    pos = next;
  }
  return out;
}

namespace {

// --- Harvesting -------------------------------------------------------------

/// Broker-side apply spans of one broadcast at one broker thread, counting
/// only those that started after the broadcast span ended (the part of the
/// broker's work that is on the blocking path).
struct ApplyTail {
  int rows = 0;
  std::int64_t busy_us = 0;
  std::int64_t first_start_us = 0;
  std::int64_t last_end_us = 0;
};

/// The spans of one trace id inside one harvest window.
struct TraceView {
  std::map<std::string, std::vector<SpanRec>> spans;  // key names only
  std::map<std::uint32_t, ApplyTail> apply;
};

struct Window {
  std::int64_t start_us = 0;
  std::int64_t end_us = 0;
  std::map<std::uint64_t, TraceView> traces;
  std::vector<SpanRec> broadcasts;  // controller.broadcast, by start time
};

const std::set<std::string>& key_names() {
  static const std::set<std::string> names = {
      "bench.client.submit",     "bench.broker.report_link",
      "controller.queue_wait",   "controller.batch_admission",
      "admission.offer_batch",   "scheduler.schedule",
      "recovery.precompute",     "controller.broadcast"};
  return names;
}

class Harvester {
 public:
  /// Back-to-back windows of `window_ms` until `done`.
  void run(const std::atomic<bool>& done, int window_ms) {
    auto& tracer = bate::obs::Tracer::global();
    while (!done) {
      tracer.clear();
      const std::int64_t start = bate::obs::now_us();
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(window_ms);
      while (!done && std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      const std::string json = tracer.chrome_json();
      take(parse_chrome_events(json), start, bate::obs::now_us());
    }
  }

  std::vector<Window> windows;
  std::vector<double> queue_wait_us;
  std::vector<double> broadcast_us;
  std::vector<double> presolve_us;
  std::vector<double> simplex_us;
  double apply_busy_us = 0.0;
  long apply_spans = 0;
  std::string error;

 private:
  void take(const std::vector<SpanRec>& spans, std::int64_t start,
            std::int64_t end) {
    std::map<std::uint32_t, std::size_t> per_ring;
    for (const SpanRec& s : spans) ++per_ring[s.tid];
    for (const auto& [tid, n] : per_ring) {
      if (n >= bate::obs::TraceRing::kDefaultCapacity && error.empty()) {
        error = "trace ring " + std::to_string(tid) +
                " filled within one harvest window (spans dropped)";
      }
    }
    Window w;
    w.start_us = start;
    w.end_us = end;
    std::map<std::uint64_t, std::int64_t> broadcast_end;
    for (const SpanRec& s : spans) {
      if (s.name == "controller.broadcast") {
        broadcast_end.emplace(s.trace, s.end_us());
        w.broadcasts.push_back(s);
      }
    }
    std::sort(w.broadcasts.begin(), w.broadcasts.end(),
              [](const SpanRec& a, const SpanRec& b) { return a.ts_us < b.ts_us; });
    for (const SpanRec& s : spans) {
      if (s.name == "controller.queue_wait") {
        queue_wait_us.push_back(static_cast<double>(s.dur_us));
      } else if (s.name == "controller.broadcast") {
        broadcast_us.push_back(static_cast<double>(s.dur_us));
      } else if (s.name == "solver.presolve") {
        presolve_us.push_back(static_cast<double>(s.dur_us));
      } else if (s.name == "solver.simplex") {
        simplex_us.push_back(static_cast<double>(s.dur_us));
      } else if (s.name == "broker.apply") {
        apply_busy_us += static_cast<double>(s.dur_us);
        ++apply_spans;
        const auto it = broadcast_end.find(s.trace);
        if (it != broadcast_end.end() && s.ts_us >= it->second) {
          ApplyTail& tail = w.traces[s.trace].apply[s.tid];
          if (tail.rows == 0 || s.ts_us < tail.first_start_us) {
            tail.first_start_us = s.ts_us;
          }
          ++tail.rows;
          tail.busy_us += s.dur_us;
          tail.last_end_us = std::max(tail.last_end_us, s.end_us());
        }
        continue;
      }
      if (s.trace != 0 && key_names().count(s.name) != 0) {
        w.traces[s.trace].spans[s.name].push_back(s);
      }
    }
    windows.push_back(std::move(w));
  }
};

// --- Stage decomposition ----------------------------------------------------

/// Per-event stage self times along the blocking path, microseconds.
struct Stages {
  std::map<std::string, std::vector<double>> by_stage;
  std::vector<double> e2e_us;
  std::vector<double> sum_us;
};

const Window* window_for(const std::vector<Window>& windows,
                         std::int64_t from_us, std::int64_t to_us) {
  for (const Window& w : windows) {
    // 1 ms margins: spans are pushed when they close, a little after the
    // watcher may already have seen their effect.
    if (w.start_us <= from_us - 1000 && to_us + 1000 <= w.end_us) return &w;
  }
  return nullptr;
}

/// The first `name` span of the trace, or the first one whose parent is
/// `parent` when that is non-zero.
const SpanRec* key_span(const TraceView& tv, const char* name,
                        std::uint64_t parent = 0) {
  const auto it = tv.spans.find(name);
  if (it == tv.spans.end()) return nullptr;
  for (const SpanRec& s : it->second) {
    if (parent == 0 || s.parent == parent) return &s;
  }
  return nullptr;
}

const ApplyTail* later_broker(const TraceView& tv) {
  const ApplyTail* best = nullptr;
  for (const auto& [tid, tail] : tv.apply) {
    if (best == nullptr || tail.last_end_us > best->last_end_us) best = &tail;
  }
  return best;
}

void commit(Stages& st, const std::map<std::string, double>& one, double e2e) {
  double sum = 0.0;
  for (const auto& [name, us] : one) {
    st.by_stage[name].push_back(us);
    sum += us;
  }
  st.e2e_us.push_back(e2e);
  st.sum_us.push_back(sum);
}

/// Splits each traced event's end-to-end time into the self times on its
/// blocking path. `unframe_ns` is the replayed per-row cost of
/// FrameReader::next_frame plus decode_message, the broker's receive work
/// that no span covers.
Stages decompose(WorkloadKind kind, const PhaseResult& phase,
                 const std::vector<Window>& windows, double unframe_ns) {
  Stages st;
  std::set<std::uint64_t> seen;
  for (const PhaseResult::TracedOp& op : phase.traced) {
    // One event per trace: a burst's submits share the write's trace, and
    // its first admitted submit is the one its batch's spans describe.
    if (op.trace_id == 0 || op.done_ns < 0) continue;
    if (!seen.insert(op.trace_id).second) continue;
    const std::int64_t sent_us = op.sent_ns / 1000;
    const std::int64_t done_us = op.done_ns / 1000;
    const Window* w = window_for(windows, sent_us, done_us);
    if (w == nullptr) continue;
    const auto own = w->traces.find(op.trace_id);
    if (own == w->traces.end()) continue;
    std::map<std::string, double> one;
    one["bench.gen_lag"] = static_cast<double>(op.sent_ns - op.due_ns) / 1e3;
    const SpanRec* broadcast = nullptr;
    if (kind == WorkloadKind::kFlap) {
      const SpanRec* report = key_span(own->second, "bench.broker.report_link");
      if (report == nullptr) continue;
      for (const SpanRec& b : w->broadcasts) {
        if (b.ts_us >= report->ts_us) {
          broadcast = &b;
          break;
        }
      }
      if (broadcast == nullptr) continue;
      one["system.broker.report_link"] = static_cast<double>(report->dur_us);
      // Socket transit, the controller's wake-up, decode and plan lookup.
      one["net.ingress_wait"] =
          static_cast<double>(broadcast->ts_us - report->end_us());
      one["system.controller.broadcast"] = static_cast<double>(broadcast->dur_us);
    } else {
      const TraceView& tv = own->second;
      const SpanRec* client = key_span(tv, "bench.client.submit");
      const SpanRec* queue = key_span(tv, "controller.queue_wait");
      const SpanRec* batch = key_span(tv, "controller.batch_admission");
      // Only the batch's first submit carries the batch's spans.
      if (client == nullptr || queue == nullptr || batch == nullptr) continue;
      broadcast = key_span(tv, "controller.broadcast", batch->span);
      if (broadcast == nullptr) continue;
      double children = 0.0;
      for (const char* name : {"admission.offer_batch", "scheduler.schedule",
                               "recovery.precompute"}) {
        if (const SpanRec* s = key_span(tv, name, batch->span)) {
          one[name] = static_cast<double>(s->dur_us);
          children += static_cast<double>(s->dur_us);
        }
      }
      children += static_cast<double>(broadcast->dur_us);
      one["net.client_write"] = static_cast<double>(client->dur_us);
      // Socket transit, the controller's wake-up and decode.
      one["net.ingress_wait"] = static_cast<double>(queue->ts_us - client->end_us());
      one["system.controller.queue_wait"] = static_cast<double>(queue->dur_us);
      one["system.controller.broadcast"] = static_cast<double>(broadcast->dur_us);
      one["system.controller.batch_self"] =
          static_cast<double>(broadcast->end_us() - batch->ts_us) - children;
    }
    const auto bt = w->traces.find(broadcast->trace);
    if (bt == w->traces.end()) continue;
    const ApplyTail* tail = later_broker(bt->second);
    if (tail == nullptr) continue;
    // Socket transit and the broker's wake-up after the broadcast.
    one["net.egress_wait"] =
        static_cast<double>(tail->first_start_us - broadcast->end_us());
    one["system.broker.apply"] = static_cast<double>(tail->busy_us);
    one["system.broker.unframe_decode"] = tail->rows * unframe_ns / 1e3;
    one["bench.watch"] = static_cast<double>(done_us - tail->last_end_us);
    commit(st, one, static_cast<double>(op.done_ns - op.due_ns) / 1e3);
  }
  return st;
}

// --- Report assembly --------------------------------------------------------

struct RegistryView {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, bate::obs::HistogramSnapshot> histograms;

  explicit RegistryView(const bate::obs::MetricsSnapshot& snap) {
    for (const auto& [n, v] : snap.counters) counters[n] = v;
    for (const auto& [n, v] : snap.gauges) gauges[n] = v;
    for (const auto& [n, v] : snap.histograms) histograms[n] = v;
  }
  double counter(const std::string& n) const {
    const auto it = counters.find(n);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
  double gauge(const std::string& n) const {
    const auto it = gauges.find(n);
    return it == gauges.end() ? 0.0 : it->second;
  }
  double quantile(const std::string& n, double q) const {
    const auto it = histograms.find(n);
    return it == histograms.end() ? 0.0 : it->second.quantile(q);
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-layer percentile: 0 with a note when the layer did too little work
/// in this workload for the tail rule.
void layer_percentile(RunReport& report, const std::string& name,
                      const std::vector<double>& values, double q,
                      const std::string& unit) {
  const std::optional<double> v = percentile(values, q);
  if (!v) {
    report.notes.push_back(name + " = 0: " + std::to_string(values.size()) +
                           " samples in this workload, need " +
                           std::to_string(min_samples_for(q)));
  }
  report.metrics.push_back({name, v.value_or(0.0), unit});
}

}  // namespace

RunReport run_traced(WorkloadKind kind, std::uint64_t seed, double seconds,
                     int setups) {
  RunReport report;
  report.seed = seed;

  // Phase A: obs off, the end-to-end reference for the trace overhead. Half
  // the window is enough for a median and keeps the traced run short.
  bate::obs::set_enabled(false);
  WorkloadRun plain = run_workload(kind, seed, seconds / 2.0, setups);
  add_run_checks(report, plain);
  plain.stack.reset();
  const double plain_enforce_p50 =
      median(e2e_latencies(kind, plain.phase).enforce_us);

  // Phase B: obs on, spans harvested in windows.
  bate::obs::set_enabled(true);
  Harvester harvester;
  const int window_ms = 200;
  WorkloadRun traced = run_workload(
      kind, seed, seconds, 1, [] { bate::obs::Registry::global().reset(); },
      [&](const std::atomic<bool>& done) { harvester.run(done, window_ms); });
  const RegistryView reg(bate::obs::Registry::global().snapshot());
  add_run_checks(report, traced);
  const PhaseResult& ph = traced.phase;
  const std::vector<bate::Demand> preload = traced.stack->preloaded();
  traced.stack.reset();

  // In-process replay of the controller-side calls.
  const bate::Topology topo = bate::testbed6();
  const bate::TunnelCatalog catalog = bate::TunnelCatalog::build_all_pairs(topo, 4);
  constexpr std::size_t kMaxReplay = 600;
  const ReplayResult rp =
      kind == WorkloadKind::kFlap
          ? replay_flap(topo, catalog, preload, ph.link_log, kMaxReplay,
                        seconds / 4.0)
          : replay_open_loop(topo, catalog, preload, ph.log, kMaxReplay,
                             seconds / 4.0);
  if (!rp.error.empty()) report.violations.push_back(rp.error);
  if (!harvester.error.empty()) report.violations.push_back(harvester.error);

  const double events = static_cast<double>(std::max<long>(1, ph.events));
  const double rounds = reg.counter("bate_scheduler_rounds_total");
  auto& m = report.metrics;
  layer_percentile(report, "system.controller.queue_wait_p50_us",
                   harvester.queue_wait_us, 0.5, "us");
  layer_percentile(report, "system.controller.queue_wait_p90_us",
                   harvester.queue_wait_us, 0.9, "us");
  m.push_back({"system.controller.batch_size_p50",
               reg.quantile("bate_admission_batch_size", 0.5), "count"});
  m.push_back({"system.controller.rounds_per_event", rounds / events, "1"});
  layer_percentile(report, "system.controller.broadcast_p50_us",
                   harvester.broadcast_us, 0.5, "us");
  m.push_back({"system.controller.bytes_per_event",
               reg.counter("bate_controller_bytes_out_total") / events, "B"});
  layer_percentile(report, "core.admission.offer_admit_p50_us",
                   rp.offer_admit_us, 0.5, "us");
  layer_percentile(report, "core.admission.offer_reject_p50_us",
                   rp.offer_reject_us, 0.5, "us");
  m.push_back({"core.admission.conjecture_share",
               ratio(reg.counter("bate_admission_conjecture_accepted_total") +
                         reg.counter("bate_admission_conjecture_rejected_total"),
                     reg.counter("bate_controller_demands_offered_total")),
               "1"});
  layer_percentile(report, "core.scheduling.round_p50_us", rp.round_us, 0.5, "us");
  layer_percentile(report, "core.scheduling.round_p90_us", rp.round_us, 0.9, "us");
  layer_percentile(report, "core.scheduling.build_model_p50_us",
                   rp.build_model_us, 0.5, "us");
  layer_percentile(report, "core.scheduling.hard_repair_p50_us",
                   rp.hard_repair_us, 0.5, "us");
  m.push_back({"core.scheduling.repair_milps_per_round",
               ratio(reg.counter("bate_bnb_solves_total"), rounds), "1"});
  m.push_back({"core.scheduling.lp_rows", reg.gauge("bate_scheduler_lp_rows"),
               "count"});
  layer_percentile(report, "solver.presolve_p50_us", harvester.presolve_us, 0.5,
                   "us");
  layer_percentile(report, "solver.simplex_p50_us", harvester.simplex_us, 0.5,
                   "us");
  m.push_back({"solver.pivots_per_round",
               ratio(reg.counter("bate_solver_pivots_total"), rounds), "1"});
  m.push_back({"solver.warm_hit_ratio",
               ratio(reg.counter("bate_scheduler_warm_hits_total"),
                     reg.counter("bate_scheduler_warm_hits_total") +
                         reg.counter("bate_scheduler_warm_misses_total")),
               "1"});
  layer_percentile(report, "core.recovery.precompute_p50_us", rp.precompute_us,
                   0.5, "us");
  layer_percentile(report, "core.recovery.plan_lookup_p50_us",
                   rp.plan_lookup_us, 0.5, "us");
  const double encode_ns = median(rp.encode_ns);
  const double decode_ns = median(rp.decode_ns);
  const double frame_ns = median(rp.frame_ns);
  m.push_back({"system.protocol.encode_ns", encode_ns, "ns"});
  m.push_back({"system.protocol.decode_ns", decode_ns, "ns"});
  m.push_back({"net.framing.frame_ns", frame_ns, "ns"});
  // broker.apply spans tick in whole microseconds; their mean is unbiased.
  m.push_back({"system.broker.apply_ns",
               ratio(harvester.apply_busy_us * 1e3,
                     static_cast<double>(harvester.apply_spans)),
               "ns"});
  m.push_back({"system.broker.rows_per_event",
               static_cast<double>(ph.broker_rows) / events, "1"});
  m.push_back({"system.broker.stale_rows", static_cast<double>(traced.stale_rows),
               "count"});
  layer_percentile(report, "obs.slo.refresh_p50_us", rp.refresh_us, 0.5, "us");
  std::vector<double> catalog_ms, controller_ms, connect_ms, preload_ms;
  for (const SetupTimes& t : plain.setups) {
    catalog_ms.push_back(t.catalog_ms);
    controller_ms.push_back(t.controller_ms);
    connect_ms.push_back(t.connect_ms);
    preload_ms.push_back(t.preload_ms);
  }
  m.push_back({"setup.catalog_ms", median(catalog_ms), "ms"});
  m.push_back({"setup.controller_ms", median(controller_ms), "ms"});
  m.push_back({"setup.connect_ms", median(connect_ms), "ms"});
  m.push_back({"setup.preload_ms", median(preload_ms), "ms"});
  layer_percentile(report, "bench.gen_lag_p90_us",
                   generator_lag_us(kind == WorkloadKind::kFlap ? ph.link_reply
                                                                : ph.submit_reply),
                   0.9, "us");
  const E2eLatencies lat = e2e_latencies(kind, ph);
  m.push_back({"bench.trace_overhead",
               ratio(median(lat.enforce_us), plain_enforce_p50) - 1.0, "1"});

  // Stage sum along the blocking path.
  const Stages st =
      decompose(kind, ph, harvester.windows, median(rp.unframe_ns) + decode_ns);
  const double e2e_med = median(st.e2e_us);
  const double residual = ratio(e2e_med - median(st.sum_us), e2e_med);
  m.push_back({"bench.stage_residual", residual, "1"});
  report.details.push_back({"stage.events", static_cast<double>(st.e2e_us.size()), "count"});
  report.details.push_back({"stage.e2e_p50_us", e2e_med, "us"});
  report.details.push_back({"stage.sum_p50_us", median(st.sum_us), "us"});
  for (const auto& [name, values] : st.by_stage) {
    report.details.push_back({"stage." + name + "_p50_us", median(values), "us"});
  }
  report.details.push_back({"core.scheduling.lp_round_hist_p50_us",
                            reg.quantile("bate_scheduler_round_us", 0.5), "us"});
  report.details.push_back({"core.scheduling.lp_solve_replay_p50_us",
                            median(rp.lp_us), "us"});
  report.details.push_back({"replay.calls", static_cast<double>(rp.calls), "count"});
  // The check covers the two blocking paths the benchmark states a residual
  // for; contended's bursts leave too few single-trace events to gate on.
  const bool gated = kind != WorkloadKind::kContended;
  if (gated && st.e2e_us.size() < min_samples_for(0.5)) {
    report.violations.push_back("stage sum: only " + std::to_string(st.e2e_us.size()) +
                                " events had a complete span path");
  } else if (gated && std::fabs(residual) > stage_residual_bound(kind)) {
    report.violations.push_back("stage sum: stages explain " +
                                std::to_string(median(st.sum_us)) + " us of a " +
                                std::to_string(e2e_med) + " us median, residual " +
                                std::to_string(residual) + " exceeds " +
                                std::to_string(stage_residual_bound(kind)));
  }
  if (!report.violations.empty()) report.correct = false;
  return report;
}

}  // namespace perfbench
