#pragma once
// Small numeric helpers shared by the workloads: a monotonic clock and
// order statistics over samples.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

namespace hpb {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Nanoseconds on the monotonic clock (span timestamps).
[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Quantile `q` in [0, 1] with linear interpolation between order
/// statistics (the "linear" method of numpy / Python's statistics module
/// with method="inclusive"). 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

[[nodiscard]] double mean(const std::vector<double>& values);

/// Smallest sample; 0 for an empty sample.
[[nodiscard]] inline double fastest(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : *std::min_element(values.begin(), values.end());
}

}  // namespace hpb
