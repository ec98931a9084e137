#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of quantile q among n samples.
std::size_t nearest_rank(double q, std::size_t n) {
  // The epsilon keeps q * n = 90.000000000001 from rounding up a rank.
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::size_t min_samples_for(double q) {
  std::size_t n = kMinSamplesBeyond + 1;
  while (n - nearest_rank(q, n) < kMinSamplesBeyond) ++n;
  return n;
}

std::optional<double> percentile(std::vector<double> values, double q) {
  const std::size_t n = values.size();
  if (n == 0) return std::nullopt;
  const std::size_t rank = nearest_rank(q, n);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> latencies_from_due_us(std::span<const OpTiming> ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpTiming& op : ops) {
    if (op.done_ns < 0) continue;
    out.push_back(static_cast<double>(op.done_ns - op.due_ns) / 1e3);
  }
  return out;
}

std::vector<double> generator_lag_us(std::span<const OpTiming> ops) {
  std::vector<double> out;
  out.reserve(ops.size());
  for (const OpTiming& op : ops) {
    out.push_back(
        static_cast<double>(std::max<std::int64_t>(0, op.sent_ns - op.due_ns)) /
        1e3);
  }
  return out;
}

}  // namespace perfbench
