#include "obs/counters.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/table.hpp"

namespace hp::obs {

SchedulerCounters counters_from_events(std::span<const Event> events,
                                       const Platform& platform) {
  SchedulerCounters c;
  // Open execution per worker: start time, or NaN when the worker is free.
  std::vector<double> open(static_cast<std::size_t>(platform.workers()),
                           std::numeric_limits<double>::quiet_NaN());

  for (const Event& e : events) {
    if (e.time > c.makespan) c.makespan = e.time;
    switch (e.kind) {
      case EventKind::kReady:
        ++c.tasks_ready;
        break;
      case EventKind::kStart:
        if (e.worker >= 0) open[static_cast<std::size_t>(e.worker)] = e.time;
        break;
      case EventKind::kComplete:
      case EventKind::kAbort: {
        if (e.kind == EventKind::kComplete) {
          ++c.tasks_completed;
        } else {
          ++c.aborts;
        }
        if (e.worker < 0) break;
        double& started = open[static_cast<std::size_t>(e.worker)];
        if (std::isnan(started)) break;  // unpaired (merged/partial stream)
        const auto r =
            static_cast<std::size_t>(platform.type_of(e.worker));
        (e.kind == EventKind::kComplete ? c.busy_time : c.aborted_time)[r] +=
            e.time - started;
        started = std::numeric_limits<double>::quiet_NaN();
        break;
      }
      case EventKind::kSpoliateAttempt:
        ++c.spoliation_attempts;
        break;
      case EventKind::kSpoliateSkip:
        ++c.spoliation_skips;
        break;
      case EventKind::kSpoliateCommit:
        ++c.spoliation_commits;
        break;
      case EventKind::kQueueDepth:
        if (static_cast<long long>(e.value) > c.peak_ready_depth) {
          c.peak_ready_depth = static_cast<long long>(e.value);
        }
        break;
      case EventKind::kIdleBegin:
        break;
      case EventKind::kIdleEnd:
        ++c.idle_intervals;
        break;
      case EventKind::kBoundViolation:
        ++c.bound_violations;
        break;
      case EventKind::kWorkerCrash:
        ++c.worker_crashes;
        break;
      case EventKind::kWorkerSlowBegin:
        ++c.straggler_windows;
        break;
      case EventKind::kWorkerSlowEnd:
        break;
      case EventKind::kTaskFail:
        ++c.task_failures;
        break;
      case EventKind::kTaskRetry:
        ++c.task_retries;
        break;
      case EventKind::kRunDegraded:
        ++c.degraded_runs;
        break;
      case EventKind::kTaskArrival:
        ++c.tasks_arrived;
        break;
      case EventKind::kTaskShed:
        ++c.tasks_shed;
        break;
      case EventKind::kTaskDeferred:
        ++c.tasks_deferred;
        break;
      case EventKind::kDeadlineMiss:
        ++c.deadline_misses;
        break;
      case EventKind::kReplan:
        ++c.replans;
        break;
      case EventKind::kRescheduleTick:
        ++c.reschedule_ticks;
        break;
      case EventKind::kModeChange:
        ++c.mode_changes;
        break;
      case EventKind::kStragglerRespawn:
        ++c.straggler_respawns;
        break;
    }
  }

  for (Resource r : {Resource::kCpu, Resource::kGpu}) {
    const auto i = static_cast<std::size_t>(r);
    const double capacity = platform.count(r) * c.makespan;
    // Aborted work counts as idle, per the §6.2 footnote (and matching
    // ScheduleMetrics::idle_time).
    c.idle_fraction[i] =
        capacity > 0.0 ? (capacity - c.busy_time[i]) / capacity : 0.0;
  }
  return c;
}

void add_to_registry(const SchedulerCounters& c, MetricsRegistry* registry) {
  assert(registry != nullptr);
  const auto set = [registry](std::string_view name, auto value) {
    registry->gauge(name) = static_cast<double>(value);
  };
  set("tasks_ready", c.tasks_ready);
  set("tasks_completed", c.tasks_completed);
  set("spoliation_attempts", c.spoliation_attempts);
  set("spoliation_commits", c.spoliation_commits);
  set("spoliation_skips", c.spoliation_skips);
  set("aborts", c.aborts);
  set("bound_violations", c.bound_violations);
  set("worker_crashes", c.worker_crashes);
  set("straggler_windows", c.straggler_windows);
  set("task_failures", c.task_failures);
  set("task_retries", c.task_retries);
  set("degraded_runs", c.degraded_runs);
  set("tasks_arrived", c.tasks_arrived);
  set("tasks_shed", c.tasks_shed);
  set("tasks_deferred", c.tasks_deferred);
  set("deadline_misses", c.deadline_misses);
  set("replans", c.replans);
  set("reschedule_ticks", c.reschedule_ticks);
  set("mode_changes", c.mode_changes);
  set("straggler_respawns", c.straggler_respawns);
  set("peak_ready_depth", c.peak_ready_depth);
  set("idle_intervals", c.idle_intervals);
  set("cpu_busy_time", c.busy_time[0]);
  set("gpu_busy_time", c.busy_time[1]);
  set("cpu_aborted_time", c.aborted_time[0]);
  set("gpu_aborted_time", c.aborted_time[1]);
  set("cpu_idle_fraction", c.idle_fraction[0]);
  set("gpu_idle_fraction", c.idle_fraction[1]);
  set("makespan", c.makespan);
}

std::string counter_table(const MetricsRegistry& registry, std::size_t first) {
  const auto& gauges = registry.gauges();
  assert(first <= gauges.size());
  util::Table table({"counter", "value"}, 6);
  for (std::size_t i = first; i < gauges.size(); ++i) {
    const auto& [name, value] = gauges[i];
    auto& row = table.row().cell(name);
    if (value == std::floor(value) && std::abs(value) < 1e15) {
      row.cell(static_cast<long long>(value));
    } else {
      row.cell(value);
    }
  }
  std::ostringstream oss;
  table.print(oss);
  return oss.str();
}

}  // namespace hp::obs
