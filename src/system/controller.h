// The BATE controller (Sec 4): offline routing (the tunnel catalog it is
// constructed with), admission control, the online scheduler, failure
// recovery, and the TCP communication channel to brokers and users.
//
// The controller runs its epoll loop on a dedicated thread. Users connect,
// submit demands and receive admission replies; brokers connect, introduce
// themselves with Hello{role="broker"} and then receive allocation updates.
// Admission, scheduling and the down set live in one ControlPlane
// (core/control_plane.h), the event sequence the testbed simulator and
// tools/bate_plan also run. Every event (link down or up, admission batch,
// withdraw, broker Hello) ends in one publish step: brokers get
// ControlPlane::enforced(), flagged backup while any link is down. A link
// report computes no plan ahead: the publish after it runs Algorithm 2
// over the down set when a down link carries traffic.
//
// Admission pipeline (DESIGN.md Sec 10): SubmitDemand frames are enqueued
// (bounded, per-tenant token buckets at ingress, overflow shed with
// retry_after) and the queue drains once per event-loop tick through one
// ControlPlane::admit call; per-demand verdict replies are flushed as a
// single batched write per peer, correlated by request_id so every
// connection may pipeline many in-flight submits.
//
// Threading: the controller deliberately owns NO locks — all of its state
// is confined to the event-loop thread (cross-thread mutation goes through
// EventLoop's pending queue). When replication (ROADMAP item 7) adds
// controller-side shared state, its mutexes must be bate::Mutex with
// LockRank::kController — the top of the hierarchy in util/mutex.h, since
// controller paths call into every layer below (DESIGN.md Sec 8.5).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "core/control_plane.h"
#include "core/scheduling.h"
#include "net/event_loop.h"
#include "net/framing.h"
#include "net/socket.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "system/protocol.h"
#include "system/rate_limiter.h"

namespace bate {

/// Snapshot view over the process-wide metrics registry (src/obs), scoped
/// to this controller instance: the constructor records the registry's
/// counter values and stats() reports the growth since then.
struct ControllerStats {
  int demands_offered = 0;
  int demands_admitted = 0;
  int demands_shed = 0;
  /// Rejected at ingress for failing the admission preconditions.
  int demands_invalid = 0;
  int link_failures_handled = 0;
  int allocation_updates_sent = 0;
};

/// Admission-pipeline tuning (DESIGN.md Sec 10). Defaults keep the
/// low-latency behaviour the tests and demos expect; bench_system raises
/// the knobs for the 100k-arrival churn runs.
struct ControllerConfig {
  /// Event-loop poll timeout; the admission queue drains after every loop
  /// iteration, so this bounds reply latency only on an idle connection.
  /// Also the retry_after hint handed to shed requests.
  int tick_ms = 5;
  /// Bounded admission queue across all tenants; overflow is shed with
  /// AdmissionStatus::kShed + retry_after.
  std::size_t max_queue = 8192;
  /// Per-tenant submit rate (requests/sec) enforced at ingress via
  /// RequestRateLimiter; 0 disables.
  double tenant_rate_per_sec = 0.0;
  /// Bucket depth for the tenant limiter; <= 0 defaults to the rate.
  double tenant_burst = 0.0;
  /// Run a full scheduling round (AdmissionController::reschedule) after
  /// every batch containing admissions, amortizing the pre-pipeline
  /// round-per-request cost to one round per tick. When false, all-greedy
  /// batches keep their (feasible, unoptimized) greedy allocations and only
  /// the new rows are delta-broadcast — the high-churn setting, since a
  /// reschedule LP grows with the admitted set (DESIGN.md Sec 10).
  bool reschedule_after_batch = true;
  /// Period (ms) of the SLO time-series sampler that records the registry
  /// snapshot into the ring-buffer store; <= 0 disables sampling. The
  /// availability ledger itself is always on — it is the product's answer
  /// to "did we keep the beta_d promise", not a diagnostic.
  int slo_sample_period_ms = 1000;
};

class Controller {
 public:
  /// Topology and catalog must outlive the controller.
  Controller(const Topology& topo, const TunnelCatalog& catalog,
             SchedulerConfig scheduler_cfg = {},
             AdmissionStrategy admission = AdmissionStrategy::kBate,
             ControllerConfig config = {});
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Binds a loopback port and starts the service thread.
  void start();
  void stop();
  std::uint16_t port() const { return port_; }

  ControllerStats stats() const;

 private:
  struct Peer {
    Socket socket;
    FrameReader reader;
    std::string role;  // set by Hello
    int dc = -1;
    /// request_ids submitted but not yet replied to (duplicate detection;
    /// legacy request_id 0 is never tracked).
    std::set<std::uint64_t> inflight;
  };

  /// One queued SubmitDemand awaiting the tick drain.
  struct PendingAdmission {
    int fd = -1;
    std::uint64_t request_id = 0;
    Demand demand;
    std::int64_t enqueue_us = 0;
    int tenant = 0;
    /// Wire trace context of the submit frame (client.submit span); zero
    /// when the client did not trace.
    obs::SpanContext trace;
  };

  void on_accept();
  void on_peer_readable(int fd);
  void handle_message(Peer& peer, const Message& msg,
                      const obs::SpanContext& trace = {});
  /// SubmitDemand ingress: duplicate check, tenant rate limit, queue bound,
  /// then enqueue for the tick drain.
  void on_submit(Peer& peer, const SubmitDemandMsg& submit,
                 const obs::SpanContext& trace);
  /// Tick handler: drains the whole admission queue through
  /// ControlPlane::admit and flushes per-peer reply batches.
  void drain_admission_queue();
  /// Sheds one request with kShed + retry_after and counts it.
  void shed(Peer& peer, std::uint64_t request_id, DemandId id,
            double retry_after_ms);
  /// Drops queued work belonging to a departed peer (dead entries must not
  /// reach the batch solve) and, for withdraw, a tenant's queued demand.
  void purge_queue_for_fd(int fd);
  void purge_queue_for_demand(DemandId id);
  int tenant_of(const Peer& peer) const;

  void send_to(Peer& peer, const Message& msg);
  /// Flushes an accumulated frame batch to `peer` with one write.
  void flush_batch(Peer& peer, const FrameBatch& batch);
  /// The step every event ends with: sends ControlPlane::enforced(), then
  /// feeds the same table to refresh_slo. The rows are framed once (one
  /// AllocationUpdate per (demand, pair), flagged backup while any link is
  /// down) and the same bytes go to each recipient in one write. `to` set:
  /// that broker alone gets every row (a Hello snapshot). Otherwise every
  /// broker gets admitted()[first..] under one controller.broadcast span,
  /// whose context every frame carries, plus an empty (row-removing) update
  /// per pair of each `removed` demand.
  /// `first` > 0 is the delta after greedy admissions that moved nobody
  /// else; it holds only while no link is down, since a backup plan may
  /// move any row.
  void publish(Peer* to = nullptr, std::size_t first = 0,
               std::span<const Demand> removed = {});

  /// Re-derives every admitted demand's satisfied bit from `table` (what
  /// brokers enforce, index-aligned with admitted()) and the current
  /// down-link set, and feeds the SLO ledger (degrade/recover transitions on
  /// change only). Its own surviving-tunnel test measures what is delivered
  /// rather than trusting the rule that picked the table.
  void refresh_slo(std::span<const Allocation> table, std::int64_t now_us);
  /// Samples the registry into the time-series store once per
  /// slo_sample_period_ms (tick handler).
  void sample_slo_series(std::int64_t now_us);
  /// Renders the SLO payload for a kSloRequest selector.
  std::string slo_payload(const std::string& selector, std::int64_t now_us);

  // Loop-thread state: touched only from the epoll thread (callbacks), or
  // before start() / after stop() joins it.
  TrafficScheduler scheduler_;
  ControlPlane control_;
  ControllerConfig config_;
  std::optional<RequestRateLimiter> limiter_;
  std::unique_ptr<TcpListener> listener_;
  EventLoop loop_;
  std::map<int, Peer> peers_;
  /// Admission queue, per tenant for round-robin drain fairness. Bounded by
  /// config_.max_queue across all tenants (queued_ tracks the total).
  std::map<int, std::deque<PendingAdmission>> queue_;
  std::size_t queued_ = 0;

  // Availability-SLO state (tentpole of ISSUE 10). The ledger/store carry
  // their own kObsLedger mutexes (safe under the no-locks loop-thread rule:
  // kObsLedger is below every subsystem rank).
  obs::SloLedger ledger_;
  obs::TimeSeriesStore series_;
  std::int64_t next_sample_us_ = 0;

  std::thread thread_;
  std::uint16_t port_ = 0;  // written by start() before the thread exists

  // Registry counter values at construction; stats() subtracts these so the
  // accessor stays per-instance even though the registry is process-wide.
  std::int64_t base_offered_ = 0;
  std::int64_t base_admitted_ = 0;
  std::int64_t base_shed_ = 0;
  std::int64_t base_invalid_ = 0;
  std::int64_t base_failures_ = 0;
  std::int64_t base_updates_ = 0;
};

}  // namespace bate
