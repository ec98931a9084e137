// BATE admission control (Sec 3.2, Appendix A).
//
// Demands are served FCFS without preemption. Three strategies are
// implemented, matching the paper's evaluation:
//
//  * kFixed   — step (1) only: freeze the allocations of admitted demands
//               and test the newcomer against residual capacity.
//  * kBate    — step (1); on failure the Admission Conjecture (Algorithm 1)
//               greedily tests whether rescheduling everyone could fit the
//               newcomer (Theorem 1: no false positives); on success the
//               newcomer gets a temporary allocation from residual capacity
//               that the next periodic scheduling round upgrades.
//  * kOptimal — the Appendix-A MILP feasibility check: admit iff an
//               allocation exists satisfying every demand's hard
//               availability target (NP-hard; solved by branch & bound).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/scheduling.h"
#include "solver/branch_bound.h"
#include "workload/demand.h"

namespace bate {

enum class AdmissionStrategy { kFixed, kBate, kOptimal };

/// Why `demand` fails the admission preconditions, or nullptr when it meets
/// them: at least one pair, every pair known to the catalog, finite
/// nonnegative bandwidth, beta and mu in [0,1], and at most
/// kMaxPatternTunnels tunnels over all its pairs (its joint pattern
/// distribution). Ingress checks it before a demand reaches admission.
const char* demand_defect(const TunnelCatalog& catalog, const Demand& demand);

/// Aborts (BATE_ASSERT, util/check.h) when demand_defect() names a defect.
void validate_demand(const TunnelCatalog& catalog, const Demand& demand);

/// Algorithm 1: greedy conjecture on whether every demand in `demands` can
/// be satisfied simultaneously. Conservative: a `true` answer implies a
/// feasible allocation exists (Theorem 1) — the greedy allocation built
/// during the walk is itself a witness, certified against the scheduler's
/// pruned failure model (a strictly tighter, still sound test than the
/// paper's product bound s_d; see the implementation note).
bool admission_conjecture(const TrafficScheduler& scheduler,
                          std::span<const Demand> demands);

/// Appendix A as a feasibility MILP over tunnel patterns: does an allocation
/// exist under which every demand meets its hard availability target within
/// the scheduler's (pruned) failure model?
bool optimal_admission_check(const TrafficScheduler& scheduler,
                             std::span<const Demand> demands,
                             const BranchBoundOptions& options = {});

/// The Appendix-A feasibility MILP itself, without solving it. Exposed for
/// the solver microbench (bench/bench_solver.cpp), which times solve_lp on
/// its LP relaxation.
Model build_admission_model(const TrafficScheduler& scheduler,
                            std::span<const Demand> demands);

/// Greedy single-demand allocation against residual link capacities, the
/// inner loop of Algorithm 1 (also used for temporary allocations). Returns
/// nullopt when the residual capacity cannot carry the demand. `residual` is
/// consumed (decremented) on success.
std::optional<Allocation> greedy_allocate(const Topology& topo,
                                          const TunnelCatalog& catalog,
                                          const Demand& demand,
                                          std::vector<double>& residual);

/// Availability-guaranteed variant: after the bandwidth walk, tops up
/// reliable tunnels with redundant allocation until the demand's hard
/// availability target holds under the scheduler's pruned model (the
/// over-provisioning the optimal MILP would also use). Returns nullopt —
/// leaving `residual` untouched — when bandwidth or availability cannot be
/// met.
std::optional<Allocation> greedy_allocate_guaranteed(
    const TrafficScheduler& scheduler, const Demand& demand,
    std::vector<double>& residual);

/// Best-effort variant: places as much of the demand as fits (possibly all
/// of it) and always consumes `residual`.
Allocation greedy_allocate_partial(const Topology& topo,
                                   const TunnelCatalog& catalog,
                                   const Demand& demand,
                                   std::vector<double>& residual);

struct AdmissionOutcome {
  bool admitted = false;
  bool via_conjecture = false;  // BATE step (2) fired
  double decision_seconds = 0.0;
};

/// Result of offering one controller tick's queue FCFS (offer_batch).
struct BatchAdmissionOutcome {
  /// One outcome per offered demand, in offer order.
  std::vector<AdmissionOutcome> outcomes;
  /// True when an admission path ran reschedule(), i.e. allocations of
  /// previously admitted demands may have changed and a delta broadcast of
  /// the new tail is not enough.
  bool rescheduled = false;
  /// admitted().size() before the batch: admitted()[first_new_index..] are
  /// exactly this batch's admissions, in batch order.
  std::size_t first_new_index = 0;
};

/// Stateful FCFS admission controller tracking the admitted set and its
/// allocations; used by the simulator and the controller process.
class AdmissionController {
 public:
  AdmissionController(const TrafficScheduler& scheduler,
                      AdmissionStrategy strategy);

  /// Offers a new demand; admits or rejects per the strategy.
  AdmissionOutcome offer(const Demand& demand);
  /// Offers a whole tick's queue FCFS. Per-demand verdicts equal a serial
  /// offer() loop for every strategy: the batch path IS the serial walk,
  /// sharing one incrementally maintained residual instead of recomputing
  /// it per offer, which is what removes the O(admitted) term per decision.
  BatchAdmissionOutcome offer_batch(std::span<const Demand> demands);
  /// Removes a departed demand.
  void remove(DemandId id);
  /// Periodic traffic scheduling over the admitted set (Sec 3.3). Returns
  /// false when the LP was infeasible (previous allocations are kept).
  bool reschedule();
  /// Replaces the allocations, index-aligned with admitted(): another TE
  /// scheme's allocation of the admitted set.
  void set_allocations(std::vector<Allocation> allocations);

  /// Branch-and-bound budget for the kOptimal strategy.
  void set_optimal_options(const BranchBoundOptions& options) {
    optimal_options_ = options;
  }

  const std::vector<Demand>& admitted() const { return admitted_; }
  const std::vector<Allocation>& allocations() const { return allocations_; }
  /// Residual capacity per link given current allocations.
  std::vector<double> residual_capacity() const;
  const TrafficScheduler& scheduler() const { return *scheduler_; }

 private:
  /// Serial admission walk for one demand against `residual`, which the
  /// caller keeps equal to residual_capacity() (offer() seeds it fresh;
  /// offer_batch() maintains it across the batch). Sets *rescheduled when a
  /// path rebuilt allocations_ wholesale.
  AdmissionOutcome offer_one(const Demand& demand,
                             std::vector<double>& residual, bool* rescheduled);
  bool try_fixed(const Demand& demand, std::vector<double>& residual);
  /// Admits `demand` on a temporary greedy allocation, runs a scheduling
  /// round over the admitted set and refreshes `residual` from it.
  void admit_and_reschedule(const Demand& demand,
                            std::vector<double>& residual, bool* rescheduled);

  const TrafficScheduler* scheduler_;
  AdmissionStrategy strategy_;
  BranchBoundOptions optimal_options_;
  std::vector<Demand> admitted_;
  std::vector<Allocation> allocations_;
  /// Basis and repairs chained across reschedule() calls, whatever
  /// admits and withdraws happen between them (see ScheduleBasisCache).
  ScheduleBasisCache sched_basis_;
};

}  // namespace bate
