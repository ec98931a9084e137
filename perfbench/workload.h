// Seeded inputs of the three workloads on testbed6. Only the generator reads
// the seed; the program under test receives nothing but the generated
// demands and link reports.
//
//  * steady_testbed6: open loop. Paper testbed demands (Sec 5.1: 10-50 Mbps,
//    Table-1 targets) arrive one at a time as a Poisson process and are
//    withdrawn after an exponential lifetime. About 60 demands are live, and
//    the fixed step admits every offer.
//  * contended_testbed6: open loop. Poisson bursts of 8 submits (one write
//    per burst) of 30-150 Mbps demands keep testbed6 near its admission
//    limit, so the conjecture step and the reject path run.
//
// Open-loop draws are stratified, and the demand list with its lifetimes
// comes from a fixed stream (see make_open_loop): the seed draws the arrival
// times, so seeds compare like with like.
//  * flap_testbed6: a fixed preload of 200 small demands, then link reports
//    one loaded link at a time and in overlapping pairs (A down, B down,
//    B up, A up); the seed shuffles the order within each cycle.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "routing/tunnels.h"
#include "topology/graph.h"
#include "util/rng.h"
#include "workload/demand.h"

namespace perfbench {

/// Shape of an open-loop workload: Poisson bursts, exponential lifetimes.
struct OpenLoopShape {
  double bursts_per_s = 20.0;
  int burst_size = 1;
  double mean_lifetime_s = 3.0;
  double bw_min_mbps = 10.0;
  double bw_max_mbps = 50.0;

  double arrivals_per_s() const { return bursts_per_s * burst_size; }
  double mean_live() const { return arrivals_per_s() * mean_lifetime_s; }
};

OpenLoopShape steady_shape();
OpenLoopShape contended_shape();

/// One demand of an open-loop schedule. Times are nanoseconds from the start
/// of the timed window.
struct Arrival {
  std::int64_t due_ns = 0;
  std::int64_t lifetime_ns = 0;
  int burst = 0;  // arrivals sharing a burst index go out in one write
  bate::Demand demand;
};

struct OpenLoopPlan {
  /// The stationary starting population (Poisson count, exponential
  /// remaining lifetimes), submitted during set-up so the timed window
  /// starts in steady state. due_ns is 0 for all of them.
  std::vector<Arrival> initial;
  /// Timed arrivals, due in [0, seconds), in due order.
  std::vector<Arrival> arrivals;
};

OpenLoopPlan make_open_loop(const OpenLoopShape& shape,
                            const bate::TunnelCatalog& catalog,
                            std::uint64_t seed, double seconds);

/// One controller-side call of an open-loop run, in the order sent.
struct LogEntry {
  bool withdraw = false;
  std::vector<bate::Demand> burst;  // submits written together
  bate::DemandId id = -1;           // withdrawn demand
};

/// The flap workload's fixed preload (seed-independent).
std::vector<bate::Demand> flap_preload(const bate::TunnelCatalog& catalog);

struct LinkEvent {
  bate::LinkId link = -1;
  bool up = false;
};

/// One flap cycle over the loaded links: every link down then up on its own,
/// then overlapping pairs of neighbours in the list. `rng` shuffles the
/// order of the singles and of the pairs.
std::vector<LinkEvent> flap_cycle(std::span<const bate::LinkId> loaded,
                                  bate::Rng& rng);

}  // namespace perfbench
