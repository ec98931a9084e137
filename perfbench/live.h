// The live stack and its load: the default Controller and two Brokers
// in-process over loopback, one user connection driven by one generator
// thread, and one watcher thread that reads the brokers through their public
// API. Everything here calls only public functions of the program.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "net/framing.h"
#include "net/socket.h"
#include "routing/tunnels.h"
#include "stats.h"
#include "system/broker.h"
#include "system/controller.h"
#include "system/protocol.h"
#include "topology/graph.h"
#include "workload.h"

namespace perfbench {

inline constexpr int kBrokers = 2;

/// CPU placement, so it is the same in every run: the controller's loop
/// thread, then one CPU per broker's receive thread, then the load side
/// (generator and watcher), each taken mod the CPU count.
inline constexpr int kControllerCpu = 0;
inline constexpr int kLoadCpu = kControllerCpu + 1 + kBrokers;

/// Pins the calling thread to kLoadCpu.
void pin_to_load_cpu();

/// Steady-clock nanoseconds (the clock obs::now_us() reads, finer grained).
std::int64_t now_ns();

/// One user connection speaking the wire protocol directly, so a burst of
/// submits goes out in one write and replies are read without blocking the
/// generator's schedule.
class UserConn {
 public:
  UserConn(std::uint16_t port, int tenant);
  int fd() const { return socket_.fd(); }
  void write(const std::vector<std::uint8_t>& bytes);
  /// Reads whatever the socket holds (call when poll reports it readable)
  /// and returns the decoded messages. Throws when the controller closed.
  std::vector<bate::Message> read_available();
  /// Blocking SLO scrape (kSloRequest, selector "").
  std::string slo();

 private:
  bate::Socket socket_;
  bate::FrameReader reader_;
};

/// Wall-clock cost of each set-up step, milliseconds.
struct SetupTimes {
  double catalog_ms = 0.0;
  double controller_ms = 0.0;  // construction + start
  double connect_ms = 0.0;     // brokers and the user connection
  double preload_ms = 0.0;     // submit the preload, wait for enforcement
  double total_s() const {
    return (catalog_ms + controller_ms + connect_ms + preload_ms) / 1e3;
  }
};

/// A running controller, two brokers and one user connection on testbed6.
/// Members are declared in construction order; the destructor stops the
/// load-side connection first, then the brokers, then the controller.
class Stack {
 public:
  /// Builds the stack and submits `preload` (one write), waiting until every
  /// admitted preload demand is enforced at both brokers.
  explicit Stack(const std::vector<bate::Demand>& preload);
  ~Stack();
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const bate::Topology& topo() const { return topo_; }
  const bate::TunnelCatalog& catalog() const { return catalog_; }
  bate::Broker& broker(int i) { return *brokers_[static_cast<std::size_t>(i)]; }
  UserConn& user() { return *user_; }
  const SetupTimes& times() const { return times_; }
  /// Preload demands the controller admitted.
  const std::vector<bate::Demand>& preloaded() const { return preloaded_; }
  /// Next request_id to use on the user connection.
  std::uint64_t next_request_id() { return next_rid_++; }
  /// Enforced rates at broker `b` (the checks' RatesFn).
  std::vector<double> rates(int b, bate::DemandId id, int pair) const;

 private:
  std::int64_t t_start_ns_ = 0;  // set first: times the catalog step
  bate::Topology topo_;
  bate::TunnelCatalog catalog_;
  std::unique_ptr<bate::Controller> controller_;
  std::vector<std::unique_ptr<bate::Broker>> brokers_;
  std::unique_ptr<UserConn> user_;
  SetupTimes times_;
  std::vector<bate::Demand> preloaded_;
  std::uint64_t next_rid_ = 1;
};

/// What one timed phase measured.
struct PhaseResult {
  // Open-loop submits (steady, contended): one entry per timed submit.
  std::vector<OpTiming> submit_reply;
  std::vector<OpTiming> submit_enforce;  // admitted submits only
  long offered = 0;
  long admitted = 0;
  long withdraws = 0;
  // Link reports (flap).
  std::vector<OpTiming> link_reply;  // first row back at the reporting broker
  std::vector<OpTiming> failover;    // link down: whole broadcast at both
  std::vector<OpTiming> restore;     // link up: whole broadcast at both
  std::vector<double> whole_ratios;  // after each failover
  long link_reports = 0;
  // Accounting shared by all workloads.
  long events = 0;  // submits + withdraws + link reports
  long failed = 0;  // shed, duplicate, unanswered, unenforced, late links
  double cpu_s = 0.0;
  std::vector<std::string> violations;
  /// Demands admitted and never withdrawn, and those withdrawn (for the
  /// stale-row count and the SLO crosscheck's coverage).
  std::set<bate::DemandId> live;
  std::set<bate::DemandId> withdrawn;
  /// The trace id of the span around each timed operation's write (0 when
  /// obs is off), with its due and send stamps and when its effect was
  /// applied at both brokers (-1 for rejected submits), for the traced stage
  /// decomposition.
  struct TracedOp {
    std::uint64_t trace_id = 0;
    std::int64_t due_ns = 0;
    std::int64_t sent_ns = 0;
    std::int64_t done_ns = -1;
  };
  std::vector<TracedOp> traced;
  /// The calls the controller received, in order, for the in-process replay.
  std::vector<LogEntry> log;
  std::vector<LinkEvent> link_log;
  /// Allocation rows broker 0 applied during the phase.
  long broker_rows = 0;
};

/// Runs the open-loop plan against `stack` for the plan's window. The
/// initial population must already be preloaded in the stack; its
/// withdraws are part of the timed window.
PhaseResult run_open_loop(Stack& stack, const OpenLoopPlan& plan,
                          double seconds);

/// Runs the flap workload against `stack` (preloaded with flap_preload()).
PhaseResult run_flap(Stack& stack, std::uint64_t seed, double seconds);

/// Links carrying traffic in the primary allocation, read from broker 0.
std::vector<bate::LinkId> loaded_links(Stack& stack,
                                       const std::vector<bate::Demand>& live);

}  // namespace perfbench
