#pragma once
// Scheduler counters derived from an event stream.
//
// SchedulerCounters is the fixed set of counters the evaluation cares about
// (§6.2 reasons about idle time, spoliation behaviour and queue pressure).
// add_to_registry() writes them as gauges into a MetricsRegistry, the one
// named sink that the CLI report table, the Prometheus exposition and the
// Chrome trace rollup all read.

#include <cstddef>
#include <span>
#include <string>

#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace hp::obs {

/// Aggregate counters of one scheduler run, derived from its event stream.
struct SchedulerCounters {
  long long tasks_ready = 0;
  long long tasks_completed = 0;
  long long spoliation_attempts = 0;  ///< idle scans that looked for a victim
  long long spoliation_commits = 0;   ///< scans that stole a task
  long long spoliation_skips = 0;     ///< scans skipped (no possible victim)
  long long aborts = 0;               ///< partial executions killed
  long long bound_violations = 0;     ///< watchdog exceedance events
  long long peak_ready_depth = 0;     ///< max ready-queue depth sample
  long long idle_intervals = 0;       ///< completed idle intervals (kIdleEnd)
  long long worker_crashes = 0;       ///< workers permanently lost
  long long straggler_windows = 0;    ///< straggler windows opened
  long long task_failures = 0;        ///< attempts aborted by injected faults
  long long task_retries = 0;         ///< re-enqueues after failed attempts
  long long degraded_runs = 0;        ///< kRunDegraded events (0 or 1 per run)
  long long tasks_arrived = 0;        ///< online arrivals (kTaskArrival)
  long long tasks_shed = 0;           ///< rejected by admission control
  long long tasks_deferred = 0;       ///< parked by admission control
  long long deadline_misses = 0;      ///< tasks incomplete at their deadline
  long long replans = 0;              ///< incremental frontier re-prioritizations
  long long reschedule_ticks = 0;     ///< rolling-horizon ticks fired
  long long mode_changes = 0;         ///< degraded-mode state transitions
  long long straggler_respawns = 0;   ///< overdue tasks aborted and re-enqueued
  double busy_time[2] = {0.0, 0.0};     ///< completed work per resource type
  double aborted_time[2] = {0.0, 0.0};  ///< work lost to spoliation
  double idle_fraction[2] = {0.0, 0.0};  ///< idle / (count * makespan);
                                         ///< aborted work counts as idle,
                                         ///< matching ScheduleMetrics
  double makespan = 0.0;  ///< latest event time

  friend bool operator==(const SchedulerCounters&,
                         const SchedulerCounters&) = default;
};

/// Derive all counters from a run's events. Start/complete/abort pairing is
/// per worker; the stream must be a single run's (time-ordered, balanced).
[[nodiscard]] SchedulerCounters counters_from_events(
    std::span<const Event> events, const Platform& platform);

/// Write every counter into `registry` as a gauge, in a fixed order (names
/// are the glossary of docs/observability.md: "spoliation_attempts",
/// "cpu_idle_fraction", ...).
void add_to_registry(const SchedulerCounters& counters,
                     MetricsRegistry* registry);

/// Two-column text table ("counter  value") of `registry`'s gauges from
/// the `first`-th on, for terminal reports. Integral values print without
/// decimals.
[[nodiscard]] std::string counter_table(const MetricsRegistry& registry,
                                        std::size_t first = 0);

}  // namespace hp::obs
