#include "replay.h"

#include <chrono>
#include <set>

#include "core/admission.h"
#include "core/recovery.h"
#include "core/scheduling.h"
#include "net/framing.h"
#include "obs/availability.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/trace.h"
#include "system/protocol.h"

namespace perfbench {

using bate::Allocation;
using bate::Demand;
using bate::obs::TraceEventCopy;

namespace {

std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const TraceEventCopy* find_span(const std::vector<TraceEventCopy>& events,
                                const char* name, std::uint64_t parent = 0) {
  for (const TraceEventCopy& e : events) {
    if (std::string_view(e.name) == name &&
        (parent == 0 || e.parent_id == parent)) {
      return &e;
    }
  }
  return nullptr;
}

class Replayer {
 public:
  Replayer(const bate::Topology& topo, const bate::TunnelCatalog& catalog,
           ReplayResult& out)
      : catalog_(catalog),
        scheduler_(topo, catalog),
        admission_(scheduler_, bate::AdmissionStrategy::kBate),
        planner_(topo, catalog),
        ring_(bate::obs::Tracer::global().thread_ring()),
        out_(out) {}

  /// SubmitDemand batch: offer_batch, then a round when anything was
  /// admitted (the controller's drain_admission_queue).
  void submit(const std::vector<Demand>& burst) {
    ring_.clear();
    bate::BatchAdmissionOutcome outcome;
    {
      bate::obs::Span span("replay.admission.offer_batch");
      outcome = admission_.offer_batch(burst);
    }
    std::vector<double> offer_us;
    for (const TraceEventCopy& e : take_events()) {
      if (std::string_view(e.name) == "admission.offer") {
        offer_us.push_back(static_cast<double>(e.dur_us));
      }
    }
    bool any = false;
    const std::int64_t now = bate::obs::now_us();
    for (std::size_t i = 0; i < outcome.outcomes.size(); ++i) {
      const bool admitted = outcome.outcomes[i].admitted;
      if (offer_us.size() == outcome.outcomes.size()) {
        (admitted ? out_.offer_admit_us : out_.offer_reject_us)
            .push_back(offer_us[i]);
      }
      if (!admitted) continue;
      any = true;
      ledger_.admit(burst[i].id, 1, burst[i].availability_target, now);
      ledger_.allocate(burst[i].id, now);
    }
    if (any) round();
  }

  /// WithdrawDemand: remove, then a round.
  void withdraw(bate::DemandId id) {
    ledger_.withdraw(id, bate::obs::now_us());
    admission_.remove(id);
    round();
  }

  /// LinkStatus: plan lookup (down) and the backup or primary broadcast.
  void link(const LinkEvent& ev) {
    const bate::RecoveryResult* plan = nullptr;
    if (!ev.up) {
      ring_.clear();
      const std::int64_t t0 = clock_ns();
      {
        bate::obs::Span span("replay.recovery.plan_lookup");
        plan = planner_.plan(ev.link);
      }
      out_.plan_lookup_us.push_back(static_cast<double>(clock_ns() - t0) / 1e3);
      take_events();
      down_.insert(ev.link);
    } else {
      down_.erase(ev.link);
    }
    const bool backup = plan != nullptr;
    const auto& demands = backup ? planner_.demands() : admission_.admitted();
    const auto& allocs = backup ? plan->alloc : admission_.allocations();
    broadcast(demands, allocs, !ev.up);
    refresh(demands, allocs);
  }

  /// Drops the samples taken so far (the preload's round is set-up work).
  void reset_samples() { out_ = ReplayResult{}; }

 private:
  std::vector<TraceEventCopy> take_events() {
    if (ring_.total() > ring_.capacity() && out_.error.empty()) {
      out_.error = "replay: this thread's trace ring wrapped within one call";
    }
    std::vector<TraceEventCopy> events = ring_.events();
    ring_.clear();
    ++out_.calls;
    return events;
  }

  /// The controller's run_scheduling_round plus its broadcast and refresh.
  void round() {
    ring_.clear();
    std::int64_t t0 = clock_ns();
    {
      bate::obs::Span span("replay.scheduling.reschedule");
      admission_.reschedule();
    }
    out_.round_us.push_back(static_cast<double>(clock_ns() - t0) / 1e3);
    const std::vector<TraceEventCopy> events = take_events();
    const TraceEventCopy* schedule = find_span(events, "scheduler.schedule");
    if (schedule != nullptr) {
      const TraceEventCopy* build =
          find_span(events, "scheduler.build_model", schedule->span_id);
      const TraceEventCopy* lp =
          find_span(events, "solver.solve_lp", schedule->span_id);
      if (build != nullptr && lp != nullptr) {
        out_.build_model_us.push_back(static_cast<double>(build->dur_us));
        out_.lp_us.push_back(static_cast<double>(lp->dur_us));
        out_.hard_repair_us.push_back(static_cast<double>(
            schedule->dur_us - build->dur_us - lp->dur_us));
      }
    }
    ring_.clear();
    t0 = clock_ns();
    {
      bate::obs::Span span("replay.recovery.precompute");
      planner_.precompute(admission_.admitted(), admission_.allocations());
    }
    out_.precompute_us.push_back(static_cast<double>(clock_ns() - t0) / 1e3);
    take_events();
    broadcast(admission_.admitted(), admission_.allocations(), false);
    refresh(admission_.admitted(), admission_.allocations());
  }

  /// One broker's share of a full broadcast: encode and frame every row as
  /// the controller does, then unframe and decode it as a broker does.
  void broadcast(const std::vector<Demand>& demands,
                 const std::vector<Allocation>& allocs, bool backup) {
    std::vector<bate::AllocationUpdateMsg> rows;
    for (std::size_t i = 0; i < demands.size() && i < allocs.size(); ++i) {
      for (std::size_t p = 0; p < demands[i].pairs.size(); ++p) {
        rows.push_back({demands[i].id, demands[i].pairs[p].pair, allocs[i][p],
                        backup});
      }
    }
    if (rows.empty()) return;
    const auto n = static_cast<double>(rows.size());
    ring_.clear();
    std::vector<std::vector<std::uint8_t>> payloads;
    payloads.reserve(rows.size());
    const std::int64_t t0 = clock_ns();
    {
      bate::obs::Span span("replay.protocol.encode");
      for (const auto& r : rows) payloads.push_back(bate::encode_message(r));
    }
    const std::int64_t t1 = clock_ns();
    bate::FrameBatch batch;
    std::vector<bate::Frame> frames;
    std::int64_t t_unframe = 0;
    {
      bate::obs::Span span("replay.net.framing");
      for (const auto& p : payloads) batch.add(p);
      t_unframe = clock_ns();
      bate::FrameReader reader;
      reader.feed(batch.bytes());
      while (auto f = reader.next_frame()) frames.push_back(std::move(*f));
    }
    const std::int64_t t2 = clock_ns();
    std::size_t mismatched = 0;
    {
      bate::obs::Span span("replay.protocol.decode");
      for (std::size_t i = 0; i < frames.size(); ++i) {
        const bate::Message msg = bate::decode_message(frames[i].payload);
        const auto* u = std::get_if<bate::AllocationUpdateMsg>(&msg);
        if (u == nullptr || u->id != rows[i].id ||
            u->tunnel_mbps != rows[i].tunnel_mbps) {
          ++mismatched;
        }
      }
    }
    const std::int64_t t3 = clock_ns();
    take_events();
    if ((mismatched != 0 || frames.size() != rows.size()) && out_.error.empty()) {
      out_.error = "replay: allocation rows did not survive encode/decode";
    }
    out_.encode_ns.push_back(static_cast<double>(t1 - t0) / n);
    out_.frame_ns.push_back(static_cast<double>(t2 - t1) / n);
    out_.unframe_ns.push_back(static_cast<double>(t2 - t_unframe) / n);
    out_.decode_ns.push_back(static_cast<double>(t3 - t2) / n);
  }

  /// The controller's refresh_slo: each demand's satisfied bit from the live
  /// allocation and the down links, fed to the ledger.
  void refresh(const std::vector<Demand>& demands,
               const std::vector<Allocation>& allocs) {
    ring_.clear();
    const std::int64_t t0 = clock_ns();
    {
      bate::obs::Span span("replay.obs.slo_refresh");
      const std::int64_t now = bate::obs::now_us();
      for (std::size_t i = 0; i < demands.size() && i < allocs.size(); ++i) {
        bool ok = true;
        for (std::size_t p = 0; p < demands[i].pairs.size() && ok; ++p) {
          const auto& tunnels = catalog_.tunnels(demands[i].pairs[p].pair);
          double delivered = 0.0;
          for (std::size_t t = 0; t < allocs[i][p].size(); ++t) {
            bool up = true;
            for (const bate::LinkId l : tunnels[t].links) {
              up = up && down_.count(l) == 0;
            }
            if (up) delivered += allocs[i][p][t];
          }
          ok = bate::obs::interval_satisfied(delivered /
                                             demands[i].pairs[p].mbps);
        }
        ledger_.set_satisfied(demands[i].id, ok, now);
      }
    }
    out_.refresh_us.push_back(static_cast<double>(clock_ns() - t0) / 1e3);
    take_events();
  }

  const bate::TunnelCatalog& catalog_;
  bate::TrafficScheduler scheduler_;
  bate::AdmissionController admission_;
  bate::BackupPlanner planner_;
  bate::obs::SloLedger ledger_;
  std::set<bate::LinkId> down_;
  bate::obs::TraceRing& ring_;
  ReplayResult& out_;
};

}  // namespace

ReplayResult replay_open_loop(const bate::Topology& topo,
                              const bate::TunnelCatalog& catalog,
                              std::span<const Demand> preload,
                              std::span<const LogEntry> log,
                              std::size_t max_entries, double budget_s) {
  ReplayResult out;
  Replayer replayer(topo, catalog, out);
  replayer.submit(std::vector<Demand>(preload.begin(), preload.end()));
  replayer.reset_samples();
  const std::int64_t deadline =
      clock_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t i = 0; i < log.size() && i < max_entries; ++i) {
    if (clock_ns() > deadline) break;
    if (log[i].withdraw) {
      replayer.withdraw(log[i].id);
    } else {
      replayer.submit(log[i].burst);
    }
  }
  return out;
}

ReplayResult replay_flap(const bate::Topology& topo,
                         const bate::TunnelCatalog& catalog,
                         std::span<const Demand> preload,
                         std::span<const LinkEvent> events,
                         std::size_t max_entries, double budget_s) {
  ReplayResult out;
  Replayer replayer(topo, catalog, out);
  replayer.submit(std::vector<Demand>(preload.begin(), preload.end()));
  replayer.reset_samples();
  const std::int64_t deadline =
      clock_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  for (std::size_t i = 0; i < events.size() && i < max_entries; ++i) {
    if (clock_ns() > deadline) break;
    replayer.link(events[i]);
  }
  return out;
}

}  // namespace perfbench
