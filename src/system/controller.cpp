#include "system/controller.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/log.h"

namespace bate {

namespace {

/// Per-demand transition-log cap in the SLO ledger.
constexpr std::size_t kSloMaxTransitions = 64;

// Stats-backing counters increment unconditionally (the stats() accessor is
// functional, not diagnostic); the net-layer instrumentation below them is
// gated on obs::enabled(). Handles resolve once — registry lookups lock.
struct ControllerMetrics {
  obs::Counter& offered;
  obs::Counter& admitted;
  obs::Counter& failures;
  obs::Counter& updates;
  obs::Counter& frames_in;
  obs::Counter& frames_out;
  obs::Counter& bytes_in;
  obs::Counter& bytes_out;
  obs::Counter& decode_errors;
  obs::Gauge& peers;
  obs::Histogram& fanout_us;
  // Admission-pipeline metrics (DESIGN.md Sec 10).
  obs::Counter& shed;
  obs::Counter& invalid;
  obs::Counter& duplicates;
  obs::Counter& dropped_dead;
  obs::Gauge& queue_depth;
  obs::Histogram& batch_size;
  obs::Histogram& reply_latency_us;

  static ControllerMetrics& get() {
    auto& reg = obs::Registry::global();
    static ControllerMetrics m{
        reg.counter("bate_controller_demands_offered_total"),
        reg.counter("bate_controller_demands_admitted_total"),
        reg.counter("bate_controller_link_failures_total"),
        reg.counter("bate_controller_allocation_updates_total"),
        reg.counter("bate_controller_frames_in_total"),
        reg.counter("bate_controller_frames_out_total"),
        reg.counter("bate_controller_bytes_in_total"),
        reg.counter("bate_controller_bytes_out_total"),
        reg.counter("bate_controller_decode_errors_total"),
        reg.gauge("bate_controller_peers"),
        reg.histogram("bate_controller_fanout_us"),
        reg.counter("bate_admission_shed_total"),
        reg.counter("bate_admission_invalid_total"),
        reg.counter("bate_admission_duplicate_total"),
        reg.counter("bate_admission_dropped_dead_total"),
        reg.gauge("bate_admission_queue_depth"),
        reg.histogram("bate_admission_batch_size"),
        reg.histogram("bate_admission_reply_latency_us"),
    };
    return m;
  }
};

}  // namespace

Controller::Controller(const Topology& topo, const TunnelCatalog& catalog,
                       SchedulerConfig scheduler_cfg,
                       AdmissionStrategy admission, ControllerConfig config)
    : scheduler_(topo, catalog, scheduler_cfg),
      control_(scheduler_, admission, config.reschedule_after_batch),
      config_(config),
      ledger_(obs::SloLedger::Config{kSloMaxTransitions, 1024}) {
  if (config_.tenant_rate_per_sec > 0.0) {
    limiter_.emplace(config_.tenant_rate_per_sec, config_.tenant_burst);
  }
  auto& m = ControllerMetrics::get();
  base_offered_ = m.offered.value();
  base_admitted_ = m.admitted.value();
  base_shed_ = m.shed.value();
  base_invalid_ = m.invalid.value();
  base_failures_ = m.failures.value();
  base_updates_ = m.updates.value();
}

Controller::~Controller() { stop(); }

void Controller::start() {
  BATE_ASSERT_MSG(!thread_.joinable(), "controller started twice");
  listener_ = std::make_unique<TcpListener>(0);
  port_ = listener_->port();
  listener_->set_nonblocking(true);
  // add_reader from this (non-loop) thread is queued and applied at the top
  // of the loop thread's first run_once (net/event_loop.h contract).
  loop_.add_reader(listener_->fd(), [this] { on_accept(); });
  // The drain runs after every loop iteration — under load a "tick" is one
  // epoll round (so the batch is whatever arrived since the last drain) and
  // tick_ms only bounds latency when the loop is otherwise idle.
  thread_ = std::thread([this] {
    loop_.run(config_.tick_ms, [this] {
      drain_admission_queue();
      sample_slo_series(obs::now_us());
    });
  });
  BATE_LOG(kInfo, "controller") << "listening on port " << port_;
}

void Controller::stop() {
  // Terminal: stop() is sticky on the loop, so a Controller cannot be
  // restarted. Order matters — only after join() owns this thread the
  // loop-thread state (peers_, listener_), so sockets are closed last.
  if (!thread_.joinable()) return;
  loop_.stop();
  thread_.join();
  peers_.clear();
  queue_.clear();
  queued_ = 0;
  listener_.reset();
}

void Controller::on_accept() {
  while (auto sock = listener_->accept()) {
    sock->set_nonblocking(true);
    sock->set_nodelay(true);
    const int fd = sock->fd();
    peers_.emplace(fd, Peer{std::move(*sock), FrameReader{}, "", -1, {}});
    loop_.add_reader(fd, [this, fd] { on_peer_readable(fd); });
  }
  if (obs::enabled()) {
    ControllerMetrics::get().peers.set(static_cast<double>(peers_.size()));
  }
}

void Controller::on_peer_readable(int fd) {
  auto it = peers_.find(fd);
  if (it == peers_.end()) return;
  Peer& peer = it->second;

  std::array<std::uint8_t, 4096> buf{};
  bool closed = false;
  try {
    while (true) {
      long n = 0;
      try {
        n = peer.socket.read_some(buf);
      } catch (const std::system_error&) {
        closed = true;
        break;
      }
      if (n == 0) {
        closed = true;
        break;
      }
      if (n < 0) break;  // would block
      if (obs::enabled()) ControllerMetrics::get().bytes_in.inc(n);
      peer.reader.feed({buf.data(), static_cast<std::size_t>(n)});
    }
    while (auto frame = peer.reader.next_frame()) {
      if (obs::enabled()) ControllerMetrics::get().frames_in.inc();
      try {
        const obs::SpanContext trace{frame->context.trace_id,
                                     frame->context.span_id};
        handle_message(peer, decode_message(frame->payload), trace);
      } catch (const std::exception& e) {
        if (obs::enabled()) ControllerMetrics::get().decode_errors.inc();
        BATE_LOG_EVERY_N(kWarn, "controller", 1024)
            << "bad message: " << e.what();
      }
    }
  } catch (const std::length_error& e) {
    // A length word beyond kMaxFrameBytes leaves no frame boundary to
    // resume at: count it and drop the peer through the close path.
    if (obs::enabled()) ControllerMetrics::get().decode_errors.inc();
    BATE_LOG_EVERY_N(kWarn, "controller", 1024)
        << "dropping peer fd " << fd << ": " << e.what();
    closed = true;
  }
  if (closed) {
    loop_.remove(fd);
    peers_.erase(fd);
    // Queued submits from the departed peer must be dropped, not solved:
    // beyond wasting the batch MILP on a dead requester, the kernel reuses
    // fd numbers, so a stale entry could reply to the wrong peer.
    purge_queue_for_fd(fd);
    if (obs::enabled()) {
      ControllerMetrics::get().peers.set(static_cast<double>(peers_.size()));
    }
  }
}

int Controller::tenant_of(const Peer& peer) const {
  // The Hello dc field doubles as the tenant id for users; anonymous peers
  // fall back to their fd so each connection is its own tenant.
  return peer.dc >= 0 ? peer.dc : peer.socket.fd();
}

void Controller::purge_queue_for_fd(int fd) {
  auto& m = ControllerMetrics::get();
  for (auto it = queue_.begin(); it != queue_.end();) {
    auto& dq = it->second;
    for (auto p = dq.begin(); p != dq.end();) {
      if (p->fd == fd) {
        m.dropped_dead.inc();
        BATE_LOG_EVERY_N(kWarn, "controller", 1024)
            << "dropping queued submit from departed fd " << fd
            << " (dropped so far " << m.dropped_dead.value() << ")";
        --queued_;
        p = dq.erase(p);
      } else {
        ++p;
      }
    }
    it = dq.empty() ? queue_.erase(it) : std::next(it);
  }
  if (obs::enabled()) m.queue_depth.set(static_cast<double>(queued_));
}

void Controller::purge_queue_for_demand(DemandId id) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    auto& dq = it->second;
    for (auto p = dq.begin(); p != dq.end();) {
      if (p->demand.id == id) {
        if (auto peer = peers_.find(p->fd); peer != peers_.end()) {
          peer->second.inflight.erase(p->request_id);
        }
        --queued_;
        p = dq.erase(p);
      } else {
        ++p;
      }
    }
    it = dq.empty() ? queue_.erase(it) : std::next(it);
  }
}

void Controller::send_to(Peer& peer, const Message& msg) {
  const auto framed = encode_frame(encode_message(msg));
  if (obs::enabled()) {
    auto& m = ControllerMetrics::get();
    m.frames_out.inc();
    m.bytes_out.inc(static_cast<std::int64_t>(framed.size()));
  }
  try {
    // Frames are small; a blocking send on a nonblocking socket can still
    // short-write under pressure, which write_all treats as EAGAIN error —
    // acceptable for the control channel sizes used here.
    peer.socket.write_all(framed);
  } catch (const std::system_error& e) {
    BATE_LOG(kWarn, "controller") << "send failed: " << e.what();
  }
}

void Controller::flush_batch(Peer& peer, const FrameBatch& batch) {
  if (batch.empty()) return;
  if (obs::enabled()) {
    auto& m = ControllerMetrics::get();
    m.frames_out.inc(static_cast<std::int64_t>(batch.frame_count()));
    m.bytes_out.inc(static_cast<std::int64_t>(batch.bytes().size()));
  }
  try {
    peer.socket.write_all(batch.bytes());
  } catch (const std::system_error& e) {
    BATE_LOG(kWarn, "controller") << "batched send failed: " << e.what();
  }
}

void Controller::handle_message(Peer& peer, const Message& msg,
                                const obs::SpanContext& trace) {
  if (const auto* hello = std::get_if<HelloMsg>(&msg)) {
    peer.role = hello->role;
    peer.dc = hello->dc;
    // A broker may introduce itself after demands were already admitted and
    // broadcast (its Hello races with the first SubmitDemand on a different
    // connection). Hand the late joiner the current allocation snapshot so
    // its enforcer never starts from a stale void.
    if (peer.role == "broker") publish(&peer);
    return;
  }
  if (const auto* submit = std::get_if<SubmitDemandMsg>(&msg)) {
    on_submit(peer, *submit, trace);
    return;
  }
  if (const auto* withdraw = std::get_if<WithdrawDemandMsg>(&msg)) {
    // A withdraw racing its own queued submit (pipelined client) cancels
    // the queued entry; without this the admission would land after the
    // withdraw and leak the demand.
    purge_queue_for_demand(withdraw->id);
    ledger_.withdraw(withdraw->id, obs::now_us());
    const std::vector<Demand> removed = control_.withdraw({&withdraw->id, 1});
    // An id that is not admitted leaves what brokers enforce unchanged.
    if (removed.empty()) return;
    // Brokers keep enforcing a row until told to drop it, so the broadcast
    // carries an empty row per pair of the departed demand.
    publish(nullptr, 0, removed);
    return;
  }
  if (const auto* status = std::get_if<LinkStatusMsg>(&msg)) {
    // A peer's link id indexes per-link tables downstream.
    if (status->link < 0 ||
        status->link >= scheduler_.topology().link_count()) {
      if (obs::enabled()) ControllerMetrics::get().decode_errors.inc();
      BATE_LOG_EVERY_N(kWarn, "controller", 1024)
          << "link report for unknown link " << status->link;
      return;
    }
    if (!status->up) ControllerMetrics::get().failures.inc();
    control_.link(status->link, status->up);
    publish();
    return;
  }
  if (const auto* req = std::get_if<StatsRequestMsg>(&msg)) {
    const std::string format =
        req->format.empty() ? "prometheus" : req->format;
    // single-shot: the stats scrape protocol predates request_id pipelining
    send_to(peer, StatsReplyMsg{format, obs::Registry::global().dump(format)});
    return;
  }
  if (const auto* slo = std::get_if<SloRequestMsg>(&msg)) {
    const std::string format = slo->format.empty() ? "json" : slo->format;
    // single-shot: SLO scrapes are polled, never pipelined
    send_to(peer, SloReplyMsg{format,
                              slo_payload(slo->selector, obs::now_us())});
    return;
  }
}

void Controller::shed(Peer& peer, std::uint64_t request_id, DemandId id,
                      double retry_after_ms) {
  auto& m = ControllerMetrics::get();
  m.shed.inc();
  // Rate-limited: under a 100k/s overload every overflow submit lands
  // here; one line per 1024 sheds keeps the logger out of the hot path.
  BATE_LOG_EVERY_N(kWarn, "controller", 1024)
      << "shedding demand " << id << " (shed so far " << m.shed.value()
      << ", retry_after " << retry_after_ms << "ms)";
  send_to(peer, AdmissionReplyMsg{request_id, id, AdmissionStatus::kShed,
                                  retry_after_ms});
}

void Controller::on_submit(Peer& peer, const SubmitDemandMsg& submit,
                           const obs::SpanContext& trace) {
  auto& m = ControllerMetrics::get();
  const std::uint64_t rid = submit.request_id;
  if (rid != 0 && peer.inflight.count(rid) != 0) {
    m.duplicates.inc();
    BATE_LOG_EVERY_N(kWarn, "controller", 1024)
        << "duplicate request_id " << rid << " (count so far "
        << m.duplicates.value() << ")";
    send_to(peer, AdmissionReplyMsg{rid, submit.demand.id,
                                    AdmissionStatus::kDuplicate, 0.0});
    return;
  }
  // A demand admission cannot serve (unknown pair, bad numbers, more
  // tunnels than a joint pattern distribution covers) is answered here:
  // admission asserts these preconditions.
  if (const char* defect = demand_defect(scheduler_.catalog(), submit.demand)) {
    m.invalid.inc();
    BATE_LOG_EVERY_N(kWarn, "controller", 1024)
        << "rejecting demand " << submit.demand.id << ": " << defect;
    send_to(peer, AdmissionReplyMsg{rid, submit.demand.id,
                                    AdmissionStatus::kRejected, 0.0});
    return;
  }
  const std::int64_t now = obs::now_us();
  if (limiter_) {
    const double retry_ms = limiter_->acquire(tenant_of(peer), now);
    if (retry_ms > 0.0) {
      shed(peer, rid, submit.demand.id, retry_ms);
      return;
    }
  }
  if (queued_ >= config_.max_queue) {
    shed(peer, rid, submit.demand.id, static_cast<double>(config_.tick_ms));
    return;
  }
  if (rid != 0) peer.inflight.insert(rid);
  queue_[tenant_of(peer)].push_back(PendingAdmission{
      peer.socket.fd(), rid, submit.demand, now, tenant_of(peer), trace});
  ++queued_;
  if (obs::enabled()) m.queue_depth.set(static_cast<double>(queued_));
}

void Controller::drain_admission_queue() {
  if (queued_ == 0) return;
  auto& m = ControllerMetrics::get();

  // Round-robin across tenants: one pending per tenant per lap until the
  // queue empties. The whole queue drains this tick either way; the
  // interleave decides batch position, i.e. FCFS priority for whatever
  // capacity is left, so one chatty tenant cannot starve the others.
  std::vector<PendingAdmission> batch;
  batch.reserve(queued_);
  while (queued_ > 0) {
    for (auto it = queue_.begin(); it != queue_.end();) {
      auto& dq = it->second;
      if (!dq.empty()) {
        batch.push_back(std::move(dq.front()));
        dq.pop_front();
        --queued_;
      }
      it = dq.empty() ? queue_.erase(it) : std::next(it);
    }
  }
  if (obs::enabled()) {
    m.queue_depth.set(0.0);
    m.batch_size.record(static_cast<std::int64_t>(batch.size()));
  }

  // Retroactive queue-wait spans (enqueue -> this drain), parented under
  // each traced submit's client span; the first traced entry's queue-wait
  // becomes the ambient parent of the whole batch solve, so the per-demand
  // client trace connects through to the shared MILP/broadcast spans.
  obs::SpanContext batch_parent{};
  const std::int64_t drain_us = obs::now_us();
  if (obs::enabled()) {
    for (const PendingAdmission& p : batch) {
      if (!p.trace.valid()) continue;
      const obs::SpanContext wait_ctx{p.trace.trace_id, obs::next_span_id()};
      obs::record_span("controller.queue_wait", p.enqueue_us,
                       drain_us - p.enqueue_us, wait_ctx, p.trace.span_id);
      if (!batch_parent.valid()) batch_parent = wait_ctx;
    }
  }
  obs::ScopedTraceContext adopt(batch_parent);
  obs::Span batch_span("controller.batch_admission");

  std::vector<Demand> demands;
  demands.reserve(batch.size());
  for (const PendingAdmission& p : batch) demands.push_back(p.demand);
  const BatchAdmissionOutcome result = control_.admit(demands);

  // Per-peer reply batches: one write per peer per tick, not per verdict.
  std::map<int, FrameBatch> outboxes;
  bool any_admitted = false;
  const std::int64_t reply_us = obs::now_us();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const bool admitted = result.outcomes[i].admitted;
    m.offered.inc();
    if (admitted) {
      m.admitted.inc();
      any_admitted = true;
      ledger_.admit(batch[i].demand.id, batch[i].tenant,
                    batch[i].demand.availability_target, reply_us);
      ledger_.allocate(batch[i].demand.id, reply_us);
    }
    auto it = peers_.find(batch[i].fd);
    if (it == peers_.end()) continue;  // vanished mid-drain
    it->second.inflight.erase(batch[i].request_id);
    outboxes[batch[i].fd].add(encode_message(AdmissionReplyMsg{
        batch[i].request_id, batch[i].demand.id,
        admitted ? AdmissionStatus::kAdmitted : AdmissionStatus::kRejected,
        0.0}));
    if (obs::enabled()) {
      m.reply_latency_us.record(reply_us - batch[i].enqueue_us);
    }
  }
  for (auto& [fd, outbox] : outboxes) {
    if (auto it = peers_.find(fd); it != peers_.end()) {
      flush_batch(it->second, outbox);
    }
  }

  if (!any_admitted) return;
  // A round may have moved anyone's rates; greedy admissions appended to
  // the tail without touching existing allocations.
  publish(nullptr, result.rescheduled ? 0 : result.first_new_index);
}

void Controller::publish(Peer* to, std::size_t first,
                         std::span<const Demand> removed) {
  const std::span<const Demand> demands(control_.admitted());
  const std::span<const Allocation> table = control_.enforced();
  const bool backup = !control_.down().empty();
  auto& m = ControllerMetrics::get();
  if (to != nullptr) {
    FrameBatch batch;
    add_allocation_rows(batch, demands, table, {}, backup);
    flush_batch(*to, batch);
    m.updates.inc(static_cast<std::int64_t>(batch.frame_count()));
  } else {
    if (backup) first = 0;
    obs::Span span("controller.broadcast");
    const obs::SpanContext sc = span.context();
    const std::int64_t t0 = obs::now_us();
    // Encoded once: every broker gets the same bytes.
    FrameBatch batch;
    add_allocation_rows(batch, demands.subspan(first), table.subspan(first),
                        removed, backup, {sc.trace_id, sc.span_id});
    std::size_t sent = 0;
    for (auto& [fd, peer] : peers_) {
      if (peer.role != "broker") continue;
      flush_batch(peer, batch);
      sent += batch.frame_count();
    }
    m.updates.inc(static_cast<std::int64_t>(sent));
    if (obs::enabled() && sent > 0) m.fanout_us.record(obs::now_us() - t0);
  }
  refresh_slo(table, obs::now_us());
}

void Controller::refresh_slo(std::span<const Allocation> table,
                             std::int64_t now_us) {
  // Delivered rate per (demand, pair): the enforced table minus every
  // tunnel crossing a down link. This is the controller-side replay of the
  // simulator's deliver_second satisfied rule, through the shared
  // obs::interval_satisfied floor.
  const std::vector<Demand>& demands = control_.admitted();
  const std::vector<LinkId>& down = control_.down();
  const TunnelCatalog& catalog = scheduler_.catalog();
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const Demand& d = demands[i];
    bool ok = true;
    for (std::size_t p = 0; p < d.pairs.size() && ok; ++p) {
      if (d.pairs[p].mbps <= 0.0) continue;
      if (p >= table[i].size()) {
        ok = false;
        break;
      }
      const std::vector<Tunnel>& tunnels = catalog.tunnels(d.pairs[p].pair);
      const std::vector<double>& rates = table[i][p];
      double delivered = 0.0;
      for (std::size_t t = 0; t < rates.size(); ++t) {
        if (!down.empty() && t < tunnels.size()) {
          bool tunnel_up = true;
          for (const LinkId link : tunnels[t].links) {
            if (std::binary_search(down.begin(), down.end(), link)) {
              tunnel_up = false;
              break;
            }
          }
          if (!tunnel_up) continue;
        }
        delivered += rates[t];
      }
      ok = obs::interval_satisfied(delivered / d.pairs[p].mbps);
    }
    ledger_.set_satisfied(d.id, ok, now_us);
  }
}

void Controller::sample_slo_series(std::int64_t now_us) {
  if (config_.slo_sample_period_ms <= 0 || !obs::enabled()) return;
  if (now_us < next_sample_us_) return;
  next_sample_us_ =
      now_us + static_cast<std::int64_t>(config_.slo_sample_period_ms) * 1000;
  series_.sample(obs::Registry::global().snapshot(), now_us);
}

std::string Controller::slo_payload(const std::string& selector,
                                    std::int64_t now_us) {
  // 60s window: long enough to cover several sampler periods at the
  // default 1s, short enough that the dashboard's rates track load shifts.
  constexpr std::int64_t kWindowUs = 60'000'000;
  if (selector == "ledger") return ledger_.snapshot(now_us).to_json();
  if (selector == "series") return series_.to_json(now_us, kWindowUs);
  std::string out = "{\"now_us\":";
  out += std::to_string(now_us);
  out += ",\"ledger\":";
  out += ledger_.snapshot(now_us).to_json();
  out += ",\"series\":";
  out += series_.to_json(now_us, kWindowUs);
  out += "}";
  return out;
}

ControllerStats Controller::stats() const {
  auto& m = ControllerMetrics::get();
  ControllerStats s;
  s.demands_offered = static_cast<int>(m.offered.value() - base_offered_);
  s.demands_admitted = static_cast<int>(m.admitted.value() - base_admitted_);
  s.demands_shed = static_cast<int>(m.shed.value() - base_shed_);
  s.demands_invalid = static_cast<int>(m.invalid.value() - base_invalid_);
  s.link_failures_handled =
      static_cast<int>(m.failures.value() - base_failures_);
  s.allocation_updates_sent =
      static_cast<int>(m.updates.value() - base_updates_);
  return s;
}

}  // namespace bate
