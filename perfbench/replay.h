// In-process replay of a workload's controller-side calls through each
// layer's public functions, for the traced run's per-layer numbers. The
// replay repeats what the controller does per event: offer_batch, then (when
// anything was admitted, and after every withdraw) reschedule, precompute,
// encode and frame every row of the broadcast, decode it as a broker would,
// and refresh the SLO ledger; for a link report, the backup-plan lookup,
// the broadcast rows and the SLO refresh. Each call runs inside a span of
// the benchmark's own and is timed on the steady clock; the program's own
// spans nested inside it are read back from this thread's trace ring.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "routing/tunnels.h"
#include "topology/graph.h"
#include "workload.h"
#include "workload/demand.h"

namespace perfbench {

struct ReplayResult {
  std::vector<double> offer_admit_us;
  std::vector<double> offer_reject_us;
  std::vector<double> round_us;        // AdmissionController::reschedule
  std::vector<double> build_model_us;  // scheduler.build_model inside it
  std::vector<double> lp_us;           // the scheduling LP's solve_lp
  std::vector<double> hard_repair_us;  // schedule - build - LP solve
  std::vector<double> precompute_us;   // BackupPlanner::precompute
  std::vector<double> plan_lookup_us;  // BackupPlanner::plan (link down)
  std::vector<double> encode_ns;       // encode_message per AllocationUpdate
  std::vector<double> decode_ns;       // decode_message per AllocationUpdate
  std::vector<double> frame_ns;        // FrameBatch::add + next_frame per row
  std::vector<double> unframe_ns;      // next_frame alone (the broker's half)
  std::vector<double> refresh_us;      // SLO set_satisfied pass
  long calls = 0;
  std::string error;  // set when a trace ring wrapped during one call
};

/// Replays `log` after offering `preload` (the admitted starting set), for
/// at most `max_entries` entries or `budget_s` seconds.
ReplayResult replay_open_loop(const bate::Topology& topo,
                              const bate::TunnelCatalog& catalog,
                              std::span<const bate::Demand> preload,
                              std::span<const LogEntry> log,
                              std::size_t max_entries, double budget_s);

/// Replays the flap workload's link reports against its preload.
ReplayResult replay_flap(const bate::Topology& topo,
                         const bate::TunnelCatalog& catalog,
                         std::span<const bate::Demand> preload,
                         std::span<const LinkEvent> events,
                         std::size_t max_entries, double budget_s);

}  // namespace perfbench
