#pragma once
// Distribution metrics derived from a finished event stream.
//
// The hot path stays cheap by not recording per-task distributions at all:
// the engines emit the same typed events they always did, and this pass
// turns one run's stream into histograms after the fact — queue-wait
// (ready -> start) per task, task durations, idle-interval lengths, and
// per-worker busy time split by resource. Works for native streams and for
// replayed static plans alike, so every scheduler gets the same metrics.

#include <span>

#include "model/platform.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace hp::obs {

/// Histogram config for simulated-time values (times are O(1e-3 .. 1e4)
/// simulated seconds; 2^-20 .. 2^36 covers them with room).
[[nodiscard]] constexpr HistogramConfig sim_time_histogram_config() {
  return HistogramConfig{};
}

/// Derive distribution metrics from `events` (one run, time-ordered) into
/// `registry`:
///   queue_wait       histogram of ready -> start per task attempt
///   task_duration    histogram of start -> complete per execution
///   idle_interval    histogram of worker idle-interval lengths
///   busy_time_cpu    histogram over CPU workers' total busy time
///   busy_time_gpu    histogram over GPU workers' total busy time
/// All values are in simulated time units.
void derive_metrics(std::span<const Event> events, const Platform& platform,
                    MetricsRegistry* registry);

}  // namespace hp::obs
