#include "core/control_plane.h"

#include <algorithm>
#include <utility>

namespace bate {

ControlPlane::ControlPlane(const TrafficScheduler& scheduler,
                           AdmissionStrategy strategy,
                           bool reschedule_after_batch,
                           const BranchBoundOptions& optimal)
    : admission_(scheduler, strategy),
      planner_(scheduler.topology(), scheduler.catalog()),
      reschedule_after_batch_(reschedule_after_batch) {
  admission_.set_optimal_options(optimal);
}

BatchAdmissionOutcome ControlPlane::admit(std::span<const Demand> batch) {
  BatchAdmissionOutcome out = admission_.offer_batch(batch);
  if (std::none_of(out.outcomes.begin(), out.outcomes.end(),
                   [](const AdmissionOutcome& o) { return o.admitted; })) {
    return out;
  }
  if (!out.rescheduled && reschedule_after_batch_) {
    admission_.reschedule();
    out.rescheduled = true;
  }
  return out;
}

std::vector<Demand> ControlPlane::withdraw(std::span<const DemandId> ids) {
  std::vector<Demand> removed;
  for (const DemandId id : ids) {
    const std::vector<Demand>& admitted = admission_.admitted();
    const auto it = std::find_if(admitted.begin(), admitted.end(),
                                 [&](const Demand& d) { return d.id == id; });
    if (it == admitted.end()) continue;
    removed.push_back(*it);
    admission_.remove(id);
  }
  if (removed.empty()) return removed;
  admission_.reschedule();
  return removed;
}

void ControlPlane::link(LinkId link, bool up) {
  const auto it = std::lower_bound(down_.begin(), down_.end(), link);
  const bool listed = it != down_.end() && *it == link;
  if (up && listed) down_.erase(it);
  if (!up && !listed) down_.insert(it, link);
}

void ControlPlane::set_primaries(std::vector<Allocation> primaries) {
  admission_.set_allocations(std::move(primaries));
}

std::span<const Allocation> ControlPlane::enforced() {
  return planner_.enforce(admission_.admitted(), admission_.allocations(),
                          down_);
}

}  // namespace bate
