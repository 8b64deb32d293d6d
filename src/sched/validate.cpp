#include "sched/validate.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

namespace hp {

namespace {

struct Segment {
  double start;
  double end;
  TaskId task;
};

std::string fail(const std::ostringstream& oss) { return oss.str(); }

ScheduleCheck check_core(const Schedule& schedule, std::span<const Task> tasks,
                         const Platform& platform,
                         const ScheduleCheckOptions& options) {
  const double tol = options.tol;
  std::ostringstream oss;
  if (schedule.num_tasks() != tasks.size()) {
    oss << "schedule covers " << schedule.num_tasks() << " tasks, instance has "
        << tasks.size();
    return {false, fail(oss)};
  }

  std::vector<std::vector<Segment>> by_worker(
      static_cast<std::size_t>(platform.workers()));

  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    const Placement& p = schedule.placement(id);
    if (!p.placed()) {
      if (!options.require_complete) continue;
      oss << "task " << id << " not placed";
      return {false, fail(oss)};
    }
    if (p.worker < 0 || p.worker >= platform.workers()) {
      oss << "task " << id << " on invalid worker " << p.worker;
      return {false, fail(oss)};
    }
    if (options.exact_durations) {
      const double expected =
          Platform::time_on(tasks[i], platform.type_of(p.worker));
      if (std::abs((p.end - p.start) - expected) > tol) {
        oss << "task " << id << " duration " << (p.end - p.start) << " != "
            << expected << " on " << resource_name(platform.type_of(p.worker));
        return {false, fail(oss)};
      }
    } else if (p.end < p.start - tol) {
      oss << "task " << id << " ends at " << p.end << " before its start "
          << p.start;
      return {false, fail(oss)};
    }
    if (p.start < -tol) {
      oss << "task " << id << " starts before 0";
      return {false, fail(oss)};
    }
    by_worker[static_cast<std::size_t>(p.worker)].push_back(
        Segment{p.start, p.end, id});
  }

  for (const AbortedSegment& a : schedule.aborted()) {
    if (a.worker < 0 || a.worker >= platform.workers()) {
      oss << "aborted segment of task " << a.task << " on invalid worker "
          << a.worker;
      return {false, fail(oss)};
    }
    const double full =
        Platform::time_on(tasks[static_cast<std::size_t>(a.task)],
                          platform.type_of(a.worker));
    const double ran = a.abort_time - a.start;
    if (ran < -tol || (options.exact_durations && ran > full + tol)) {
      oss << "aborted segment of task " << a.task << " ran " << ran
          << ", full time is " << full;
      return {false, fail(oss)};
    }
    // A zero-length segment (task spoliated at the very instant it started)
    // occupies no time on the worker; keeping it would falsely trip the
    // overlap scan against a real segment sharing the same start.
    if (ran > tol) {
      by_worker[static_cast<std::size_t>(a.worker)].push_back(
          Segment{a.start, a.abort_time, a.task});
    }
  }

  for (std::size_t w = 0; w < by_worker.size(); ++w) {
    auto& segs = by_worker[w];
    // Ties on start put a zero-length segment before the one it abuts.
    std::sort(segs.begin(), segs.end(), [](const Segment& a, const Segment& b) {
      return a.start != b.start ? a.start < b.start : a.end < b.end;
    });
    for (std::size_t i = 1; i < segs.size(); ++i) {
      if (segs[i].start < segs[i - 1].end - tol) {
        oss << "worker " << w << ": task " << segs[i].task << " starts at "
            << segs[i].start << " before task " << segs[i - 1].task
            << " ends at " << segs[i - 1].end;
        return {false, fail(oss)};
      }
    }
  }
  return {};
}

}  // namespace

ScheduleCheck check_schedule(const Schedule& schedule,
                             std::span<const Task> tasks,
                             const Platform& platform, double tol) {
  return check_core(schedule, tasks, platform, ScheduleCheckOptions{.tol = tol});
}

ScheduleCheck check_schedule(const Schedule& schedule,
                             std::span<const Task> tasks,
                             const Platform& platform,
                             const ScheduleCheckOptions& options) {
  return check_core(schedule, tasks, platform, options);
}

ScheduleCheck check_schedule(const Schedule& schedule, const TaskGraph& graph,
                             const Platform& platform,
                             const ScheduleCheckOptions& options) {
  ScheduleCheck core = check_core(schedule, graph.tasks(), platform, options);
  if (!core.ok) return core;
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    const Placement& p = schedule.placement(id);
    for (TaskId pred : graph.predecessors(id)) {
      const Placement& pp = schedule.placement(pred);
      if (!p.placed()) continue;  // allowed only when !require_complete
      if (!pp.placed()) {
        // A task cannot have run when a dependency never finished,
        // regardless of completeness relaxation.
        std::ostringstream oss;
        oss << "task " << id << " placed but predecessor " << pred
            << " is not";
        return {false, oss.str()};
      }
      if (p.start < pp.end - options.tol) {
        std::ostringstream oss;
        oss << "task " << id << " starts at " << p.start
            << " before predecessor " << pred << " ends at " << pp.end;
        return {false, oss.str()};
      }
    }
  }
  return {};
}

ScheduleCheck check_schedule(const Schedule& schedule, const TaskGraph& graph,
                             const Platform& platform, double tol) {
  return check_schedule(schedule, graph, platform,
                        ScheduleCheckOptions{.tol = tol});
}

}  // namespace hp
