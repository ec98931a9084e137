// Summary statistics for the loop benchmark: the percentile rule and the
// open-loop latency accounting.
//
// Percentile rule: a percentile is reported only when at least
// kMinSamplesBeyond samples lie beyond it, so a p90 needs 100 samples and a
// p50 needs 20. A tail estimated from fewer samples is an anecdote, and the
// benchmark refuses to print it.
//
// Open-loop accounting: every operation has the time it was due (from the
// seeded schedule), the time the generator actually sent it, and the time
// its effect was observed. Latency is measured from the due time, so a
// generator stall is charged to every request it delayed; how late the
// generator ran is reported separately as its lag.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Smallest sample count for which percentile(q) may be reported.
std::size_t min_samples_for(double q);

/// Nearest-rank percentile (q in (0, 1)) of `values`; nullopt when fewer
/// than kMinSamplesBeyond samples lie beyond the reported rank.
std::optional<double> percentile(std::vector<double> values, double q);

/// Plain median of a non-empty sample (used for repeated set-ups and run
/// medians, where the tail rule does not apply). 0 for an empty sample.
double median(std::vector<double> values);

/// One timed operation of an open-loop schedule, in nanoseconds on the
/// steady clock. done_ns < 0 means the effect was never observed.
struct OpTiming {
  std::int64_t due_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t done_ns = -1;
};

/// Latencies from the due time, in microseconds, of the operations whose
/// effect was observed.
std::vector<double> latencies_from_due_us(std::span<const OpTiming> ops);

/// How late the generator sent each operation, in microseconds (never
/// negative: an early send counts as on time).
std::vector<double> generator_lag_us(std::span<const OpTiming> ops);

}  // namespace perfbench
