// Output checks of the loop benchmark. Each check returns the violations it
// found; any violation fails the run. The broker-side checks read the
// enforcer view through a callback so the tests can feed them wrong rows.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "routing/tunnels.h"
#include "workload/demand.h"

namespace perfbench {

/// Enforced per-tunnel rates of one (demand, pair) row at broker `broker`;
/// empty when the broker has no such row.
using RatesFn =
    std::function<std::vector<double>(int broker, bate::DemandId id, int pair)>;

/// Every submit gets exactly one reply, and it carries its request_id.
class ReplyLedger {
 public:
  void sent(std::uint64_t request_id);
  void replied(std::uint64_t request_id);

  std::size_t submits() const { return replies_.size(); }
  /// Submits without a reply so far.
  std::size_t unanswered() const;
  /// Missing, duplicated and unknown request ids, one line each.
  std::vector<std::string> violations() const;

 private:
  std::map<std::uint64_t, int> replies_;  // request_id -> replies seen
  std::vector<std::uint64_t> unknown_;
};

/// Scheduler tolerance on a pair's total rate: the LP covers b_d to within
/// this relative and absolute slack (core/scheduling.cpp postcondition).
bool covers(double total_mbps, double demanded_mbps);

/// True when every pair of `d` is enforced with at least b_d at every one of
/// `brokers` brokers.
bool enforced_everywhere(const bate::Demand& d, int brokers,
                         const RatesFn& rates);

/// Violations of "every admitted demand is enforced at every broker with at
/// least b_d on every pair".
std::vector<std::string> check_enforced(std::span<const bate::Demand> admitted,
                                        int brokers, const RatesFn& rates);

/// Violations of "no broker enforces a positive rate on a tunnel that
/// crosses the link just reported down", over the rows of `live`.
std::vector<std::string> check_failover(bate::LinkId down,
                                        const bate::TunnelCatalog& catalog,
                                        std::span<const bate::Demand> live,
                                        int brokers, const RatesFn& rates);

/// Share of `live` demands whose every pair still carries its full
/// bandwidth, at broker 0, on tunnels that avoid every link in `down`.
double whole_ratio(const std::set<bate::LinkId>& down,
                   const bate::TunnelCatalog& catalog,
                   std::span<const bate::Demand> live, const RatesFn& rates);

/// Result of replaying the controller's SLO ledger through an independent
/// obs::AvailabilityMeter.
struct SloCrosscheck {
  long replayed = 0;   // rows whose full transition log was replayed
  long truncated = 0;  // rows whose log the ledger capped (not replayable)
  long degraded = 0;   // replayed rows that were degraded at least once
  double max_abs_err = 0.0;
  std::vector<std::string> violations;
};

/// Parses a kSloRequest payload ("" selector) and replays every complete
/// transition log; availability must match within `tol`, and every id in
/// `live` must have a row. Rows of withdrawn demands may have been retired
/// by the ledger's retention cap and are not required.
SloCrosscheck crosscheck_slo(const std::string& payload,
                             const std::set<bate::DemandId>& live,
                             double tol = 1e-9);

}  // namespace perfbench
