#include "system/broker.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"
#include "util/log.h"

namespace bate {

namespace {

struct BrokerMetrics {
  obs::Counter& frames_in;
  obs::Counter& bytes_in;
  obs::Counter& updates;
  obs::Counter& backup_updates;
  obs::Counter& link_reports;
  obs::Counter& dropped_reports;
  obs::Counter& decode_errors;

  static BrokerMetrics& get() {
    auto& reg = obs::Registry::global();
    static BrokerMetrics m{
        reg.counter("bate_broker_frames_in_total"),
        reg.counter("bate_broker_bytes_in_total"),
        reg.counter("bate_broker_allocation_updates_total"),
        reg.counter("bate_broker_backup_updates_total"),
        reg.counter("bate_broker_link_reports_total"),
        reg.counter("bate_broker_dropped_reports_total"),
        reg.counter("bate_broker_decode_errors_total"),
    };
    return m;
  }
};

}  // namespace

Broker::Broker(int dc_id, std::uint16_t controller_port,
               double report_rate_per_sec, double report_burst)
    : dc_(dc_id), port_(controller_port) {
  if (report_rate_per_sec > 0.0) {
    report_bucket_.emplace(report_rate_per_sec,
                           report_burst > 0.0
                               ? report_burst
                               : std::max(report_rate_per_sec, 1.0));
    report_refill_us_ = obs::now_us();
  }
}

Broker::~Broker() { stop(); }

void Broker::start() {
  BATE_ASSERT_MSG(!thread_.joinable(), "broker started twice");
  const auto hello = encode_frame(encode_message(HelloMsg{"broker", dc_}));
  {
    MutexLock lock(write_mu_);
    socket_ = connect_tcp(port_);
    socket_.set_nodelay(true);
    socket_.write_all(hello);
  }
  running_ = true;
  thread_ = std::thread([this] { receive_loop(); });
}

void Broker::stop() {
  if (!thread_.joinable()) return;
  {
    // Under write_mu_ so no report_link write can interleave with the
    // shutdown; writers observing running_ == false drop their frame.
    MutexLock lock(write_mu_);
    running_ = false;
    // shutdown() (not close()) wakes the receive thread blocked in recv.
    socket_.shutdown();
  }
  thread_.join();
  // Close only after join: the receive loop can no longer touch the fd, and
  // report_link sees running_ == false, so nobody can race the close (or a
  // kernel reuse of the fd number).
  MutexLock lock(write_mu_);
  socket_.close();
}

// Reader side of socket_ deliberately takes no lock (the function is outside
// the thread-safety analysis, declared so in broker.h): stop() shuts the
// socket down under write_mu_ and joins this thread before close(), so the
// fd stays valid for the loop's whole lifetime.
void Broker::receive_loop() {
  FrameReader reader;
  // Sized so one read takes whatever is queued: a broadcast of a few
  // hundred rows (about 10 KB for 200) arrives in one call.
  std::vector<std::uint8_t> buf(64 * 1024);
  while (running_) {
    long n = 0;
    try {
      n = socket_.read_some(buf);
    } catch (const std::system_error&) {
      break;
    }
    if (n <= 0) break;  // peer closed or socket shut down
    if (obs::enabled()) BrokerMetrics::get().bytes_in.inc(n);
    try {
      reader.feed({buf.data(), static_cast<std::size_t>(n)});
      while (auto frame = reader.next_frame()) {
        if (obs::enabled()) BrokerMetrics::get().frames_in.inc();
        Message msg;
        try {
          msg = decode_message(frame->payload);
        } catch (const std::exception& e) {
          if (obs::enabled()) BrokerMetrics::get().decode_errors.inc();
          BATE_LOG_EVERY_N(kWarn, "broker", 1024)
              << "bad message: " << e.what();
          continue;
        }
        if (const auto* update = std::get_if<AllocationUpdateMsg>(&msg)) {
          if (obs::enabled()) {
            auto& m = BrokerMetrics::get();
            m.updates.inc();
            if (update->backup) m.backup_updates.inc();
          }
          // Adopt the frame's trace context (the controller.broadcast span)
          // so the apply span joins the demand's cross-process trace.
          obs::ScopedTraceContext adopt(obs::SpanContext{
              frame->context.trace_id, frame->context.span_id});
          BATE_TRACE_SPAN("broker.apply");
          apply_update(*update);
        }
      }
    } catch (const std::length_error& e) {
      // A length word beyond kMaxFrameBytes leaves no frame boundary to
      // resume at: the stream is unusable, so the loop ends (stop() still
      // joins it).
      if (obs::enabled()) BrokerMetrics::get().decode_errors.inc();
      BATE_LOG_EVERY_N(kWarn, "broker", 1024)
          << "dropping controller stream: " << e.what();
      break;
    }
  }
}

void Broker::apply_update(const AllocationUpdateMsg& update) {
  {
    MutexLock lock(mu_);
    if (update.tunnel_mbps.empty()) {
      // The controller's removal of a withdrawn demand's row.
      enforcer_.remove(update.id, update.pair);
    } else {
      enforcer_.update(update.id, update.pair, update.tunnel_mbps);
    }
    backup_active_ = update.backup;
    ++updates_;
  }
  cv_.notify_all();
}

std::vector<double> Broker::enforced_rates(DemandId id, int pair) const {
  ReaderMutexLock lock(mu_);
  return enforcer_.rates(id, pair);
}

double Broker::enforced_total(DemandId id, int pair) const {
  double total = 0.0;
  for (double r : enforced_rates(id, pair)) total += r;
  return total;
}

int Broker::updates_received() const {
  ReaderMutexLock lock(mu_);
  return updates_;
}

int Broker::wait_updates_past(int count, int timeout_ms) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  MutexLock lock(mu_);
  // wait_until returns false once the deadline passed; spurious wakeups
  // loop back to recheck the predicate.
  while (updates_ <= count && cv_.wait_until(mu_, deadline)) {
  }
  return updates_;
}

bool Broker::backup_active() const {
  ReaderMutexLock lock(mu_);
  return backup_active_;
}

double Broker::shape(DemandId id, int pair, std::size_t tunnel,
                     double megabits) {
  MutexLock lock(mu_);
  return enforcer_.shape(id, pair, tunnel, megabits);
}

void Broker::advance_enforcer(double seconds) {
  MutexLock lock(mu_);
  enforcer_.advance(seconds);
}

int Broker::reports_dropped() const {
  ReaderMutexLock lock(write_mu_);
  return reports_dropped_;
}

void Broker::report_link(LinkId link, bool up) {
  const auto framed = encode_frame(encode_message(LinkStatusMsg{link, up}));
  MutexLock lock(write_mu_);
  if (!running_) {
    ++reports_dropped_;
    if (obs::enabled()) BrokerMetrics::get().dropped_reports.inc();
    BATE_LOG_EVERY_N(kWarn, "broker", 256)
        << "dropping link report: broker stopped";
    return;
  }
  if (report_bucket_) {
    // Each status change costs one token; the controller replans (and
    // rebroadcasts) per report, so a flapping agent must be clipped here.
    const std::int64_t now = obs::now_us();
    if (now > report_refill_us_) {
      report_bucket_->advance(
          static_cast<double>(now - report_refill_us_) * 1e-6);
      report_refill_us_ = now;
    }
    if (!report_bucket_->try_consume(1.0)) {
      ++reports_dropped_;
      if (obs::enabled()) BrokerMetrics::get().dropped_reports.inc();
      BATE_LOG_EVERY_N(kWarn, "broker", 256)
          << "dropping link report: over report rate";
      return;
    }
  }
  try {
    socket_.write_all(framed);
    if (obs::enabled()) BrokerMetrics::get().link_reports.inc();
  } catch (const std::system_error& e) {
    // Controller went away (EPIPE/ECONNRESET); the agent keeps running and
    // the report is dropped, matching the paper's fail-static stance.
    ++reports_dropped_;
    if (obs::enabled()) BrokerMetrics::get().dropped_reports.inc();
    BATE_LOG_EVERY_N(kWarn, "broker", 256)
        << "dropping link report: " << e.what();
  }
}

}  // namespace bate
