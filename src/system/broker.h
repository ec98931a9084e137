// A BATE broker (Sec 4): one per DC. Connects to the controller over a
// long-lived TCP session, receives allocation updates for its bandwidth
// enforcer, and reports link status changes observed by its network agent.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <thread>
#include <vector>

#include "net/framing.h"
#include "net/socket.h"
#include "system/protocol.h"
#include "system/rate_limiter.h"
#include "util/mutex.h"

namespace bate {

class Broker {
 public:
  /// `report_rate_per_sec` > 0 buckets link-status reports (token bucket,
  /// depth `report_burst`, defaulting to the rate): a flapping network
  /// agent is clipped at the broker instead of flooding the controller
  /// with replan work. 0 (default) reports unthrottled.
  Broker(int dc_id, std::uint16_t controller_port,
         double report_rate_per_sec = 0.0, double report_burst = 0.0);
  ~Broker();

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Connects, sends Hello{role="broker"} and starts the receive thread.
  void start();
  void stop();

  /// Bandwidth-enforcer view: currently enforced per-tunnel rates for a
  /// (demand, pair); empty when unknown.
  std::vector<double> enforced_rates(DemandId id, int pair) const;
  /// Total enforced rate across tunnels for a (demand, pair).
  double enforced_total(DemandId id, int pair) const;
  /// Number of allocation updates received (test/diagnostic hook).
  int updates_received() const;
  /// Blocks until more than `count` allocation updates have been received
  /// or `timeout_ms` elapses; returns the current update count. Event-driven
  /// alternative to sleep/poll loops for callers waiting on enforcer state:
  /// wake-ups ride the receive thread's notification instead of a timer.
  int wait_updates_past(int count, int timeout_ms) const;
  /// True when the latest update for any row came from a backup plan.
  bool backup_active() const;

  /// Network agent: report a link status change to the controller. Safe
  /// from any thread; a report racing stop() (or after it) is dropped, as
  /// is a report exceeding the construction-time report rate.
  void report_link(LinkId link, bool up);
  /// Reports dropped by this broker (stopped socket, send failure, or the
  /// report-rate bucket). Test/diagnostic hook.
  int reports_dropped() const;

  /// Bandwidth enforcer (Sec 4): shapes an offered burst on one tunnel of
  /// an enforced (demand, pair) row; returns the admitted megabits.
  double shape(DemandId id, int pair, std::size_t tunnel, double megabits);
  /// Advances the enforcer's token buckets by `seconds`.
  void advance_enforcer(double seconds);

  int dc() const { return dc_; }

 private:
  /// Receive-thread body. Reads socket_ without write_mu_ by design (see
  /// the stop() ordering proof below), so the analysis is off for it; all
  /// state mutation is delegated to apply_update().
  void receive_loop() BATE_NO_THREAD_SAFETY_ANALYSIS;
  /// Applies one allocation update to the enforcer (takes mu_). An update
  /// with no tunnel rates removes the (demand, pair) row.
  void apply_update(const AllocationUpdateMsg& update) BATE_EXCLUDES(mu_);

  int dc_;
  std::uint16_t port_;
  std::thread thread_;
  std::atomic<bool> running_{false};

  // Socket lifetime/ordering (stop()): writers take write_mu_ and check
  // running_ so no send can race the shutdown+close sequence; the receive
  // thread only reads, and shutdown() (under write_mu_) unblocks it before
  // join, after which close() is single-threaded. write_mu_ and mu_ share
  // rank kBroker: they are never held together.
  mutable Mutex write_mu_{LockRank::kBroker, "broker write"};
  Socket socket_ BATE_GUARDED_BY(write_mu_);  // reader side: see receive_loop
  /// Link-report rate bucket (rate_limiter.h), refilled from the wall clock
  /// on each report; disengaged when the ctor rate is 0.
  std::optional<TokenBucket> report_bucket_ BATE_GUARDED_BY(write_mu_);
  std::int64_t report_refill_us_ BATE_GUARDED_BY(write_mu_) = 0;
  int reports_dropped_ BATE_GUARDED_BY(write_mu_) = 0;

  mutable Mutex mu_{LockRank::kBroker, "broker state"};
  mutable CondVar cv_;  // signalled per update, waits on mu_
  /// The one row table: each tunnel's bucket holds its enforced rate.
  BandwidthEnforcer enforcer_ BATE_GUARDED_BY(mu_);
  int updates_ BATE_GUARDED_BY(mu_) = 0;
  bool backup_active_ BATE_GUARDED_BY(mu_) = false;
};

}  // namespace bate
