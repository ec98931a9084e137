// The traced run (--trace 1): per-layer metrics.
//
// The workload runs twice on fresh stacks with the same seed: once with obs
// off (the end-to-end reference) and once with obs on. During the traced
// phase the calling thread harvests every thread's trace ring in
// back-to-back windows; a ring that fills within one window fails the run,
// because a wrapped ring has dropped spans. After the phase, the workload's
// controller-side calls are replayed in-process (replay.h). Per-layer
// numbers come from the harvested spans, the replay, and the registry's
// counters and histograms.
//
// Stage-sum check: along submit -> enforce (steady, contended) and
// report -> applied at both brokers (flap), the self times of the spans on
// the blocking path, plus the benchmark's own generator lag and watcher
// delay, must add up to the traced end-to-end median within
// stage_residual_bound() of it. Socket transit and thread wake-ups between
// the client or reporting broker and the controller, and between the
// broadcast and the later broker, are stages of their own, measured between
// span boundaries (net.ingress_wait, net.egress_wait); on a VM they can take
// milliseconds. What stays unexplained is mostly the broker's receive loop
// between apply spans, beyond its replayed decode cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

inline double stage_residual_bound(WorkloadKind kind) {
  return kind == WorkloadKind::kFlap ? 0.35 : 0.15;
}

/// One span as exported by obs::Tracer::chrome_json().
struct SpanRec {
  std::string name;
  std::int64_t ts_us = 0;
  std::int64_t dur_us = 0;
  std::uint32_t tid = 0;
  std::uint64_t trace = 0;
  std::uint64_t span = 0;
  std::uint64_t parent = 0;
  std::int64_t end_us() const { return ts_us + dur_us; }
};

/// Parses the Chrome trace JSON that obs::chrome_trace_json renders.
std::vector<SpanRec> parse_chrome_events(const std::string& json);

RunReport run_traced(WorkloadKind kind, std::uint64_t seed, double seconds,
                     int setups);

}  // namespace perfbench
