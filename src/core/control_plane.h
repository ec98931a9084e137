// The BATE control loop (Sec 3-4) as one transport-free event sequence,
// run in the live controller's order:
//  * an admission batch runs admission (Sec 3.2) and, when anything was
//    admitted, one scheduling round (Sec 3.3);
//  * a withdraw removes the demands and runs one round;
//  * a link report edits the down set, and the next enforced() runs
//    Algorithm 2 (Sec 3.4) over it when a down link carries traffic.
// Brokers enforce enforced(). Unlike the paper's proactive per-link backup
// plans, nothing is precomputed: a plan for link e would be exactly
// enforced() with e down. The controller process (system/controller.h),
// the testbed simulator (sim/engine.h) and tools/bate_plan all drive this
// class. It opens no trace span: the spans of its steps chain directly
// under the caller's (controller.batch_admission).
#pragma once

#include <span>
#include <vector>

#include "core/admission.h"
#include "core/recovery.h"
#include "core/scheduling.h"

namespace bate {

class ControlPlane {
 public:
  /// `reschedule_after_batch` gates the round after an admission batch
  /// (see ControllerConfig); `optimal` is the kOptimal strategy's
  /// branch-and-bound budget. The scheduler must outlive the class.
  ControlPlane(const TrafficScheduler& scheduler, AdmissionStrategy strategy,
               bool reschedule_after_batch = true,
               const BranchBoundOptions& optimal = {});

  /// AdmissionController::offer_batch, then (when anything was admitted)
  /// one round unless an admission path already ran one. The outcome's
  /// `rescheduled` is true when any round ran.
  BatchAdmissionOutcome admit(std::span<const Demand> batch);
  /// Removes whichever of `ids` are admitted and, when any was, runs one
  /// round. Returns the removed demands.
  std::vector<Demand> withdraw(std::span<const DemandId> ids);
  /// `up` false adds `link` to the down set; true removes it.
  void link(LinkId link, bool up);
  /// Replaces the primaries (index-aligned with admitted()) with a baseline
  /// TE scheme's own allocation, so its next verdicts see its own residual.
  void set_primaries(std::vector<Allocation> primaries);
  /// BackupPlanner::enforce(admitted(), primaries(), down()); valid until
  /// the next call that changes this class.
  std::span<const Allocation> enforced();

  const std::vector<Demand>& admitted() const { return admission_.admitted(); }
  const std::vector<Allocation>& primaries() const {
    return admission_.allocations();
  }
  /// The links reported down, sorted ascending.
  const std::vector<LinkId>& down() const { return down_; }

 private:
  AdmissionController admission_;
  BackupPlanner planner_;
  bool reschedule_after_batch_;
  std::vector<LinkId> down_;
};

}  // namespace bate
