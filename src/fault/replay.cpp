#include "fault/replay.hpp"

#include <algorithm>
#include <cassert>
#include <deque>
#include <limits>
#include <utility>

namespace hp::fault {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class TaskState : std::uint8_t {
  kPending,  ///< not finished yet, still schedulable
  kDone,     ///< placed
  kDead,     ///< abandoned (budget) or transitively unfinishable
};

}  // namespace

FaultyReplayResult execute_plan_with_faults(const Schedule& plan,
                                            const TaskGraph& graph,
                                            const Platform& platform,
                                            const FaultPlan& faults,
                                            std::span<const Task> actual_times,
                                            obs::EventSink* sink) {
  assert(graph.finalized());
  assert(plan.num_tasks() == graph.size());
  const std::span<const Task> actuals =
      actual_times.empty() ? graph.tasks() : actual_times;
  assert(actuals.size() == graph.size());
  const std::size_t total = graph.size();
  const auto workers = static_cast<std::size_t>(platform.workers());

  FaultyReplayResult result;
  result.schedule = Schedule(total);
  auto& recovery = result.recovery;
  auto& events = result.events;

  // Queue order key: planned start, then a zero-length placement before a
  // positive one starting at its instant, which may depend on it. With the
  // task id as the last tie-break it keeps every per-worker queue
  // consistent with the dependency order.
  const auto queue_key = [&plan](TaskId id) {
    const Placement& p = plan.placement(id);
    return std::pair{p.start, p.end != p.start};
  };
  std::vector<std::deque<TaskId>> queue(workers);
  {
    std::vector<TaskId> by_start(total);
    for (std::size_t i = 0; i < total; ++i) {
      assert(plan.placement(static_cast<TaskId>(i)).placed());
      by_start[i] = static_cast<TaskId>(i);
    }
    std::sort(by_start.begin(), by_start.end(), [&](TaskId a, TaskId b) {
      return std::pair{queue_key(a), a} < std::pair{queue_key(b), b};
    });
    for (TaskId id : by_start) {
      queue[static_cast<std::size_t>(plan.placement(id).worker)].push_back(id);
    }
  }

  std::vector<TaskState> state(total, TaskState::kPending);
  std::vector<double> completion(total, -1.0);
  std::vector<double> min_start(total, 0.0);  // retry-backoff floor
  std::vector<int> failed_attempts(total, 0);
  std::vector<double> worker_free(workers, 0.0);
  std::vector<char> dead(workers, 0);
  std::vector<double> crash_time(workers, kInf);
  for (const CrashEvent& c : faults.crashes()) {
    if (c.worker >= 0 && static_cast<std::size_t>(c.worker) < workers) {
      crash_time[static_cast<std::size_t>(c.worker)] = c.time;
    }
  }

  // Move `from`'s remaining queue to the best surviving worker: same type,
  // least remaining planned (estimated) work, lowest id; any type when the
  // victim's type has no survivor; abandon the work when nobody survives.
  // "Surviving" at instant `at` means not yet dead and not yet past its own
  // crash instant (its queue would only bounce again).
  std::size_t dead_count = 0;
  auto remaining_work = [&](std::size_t w) {
    double sum = 0.0;
    const Resource res = platform.type_of(static_cast<WorkerId>(w));
    for (TaskId id : queue[w]) {
      sum += Platform::time_on(graph.tasks()[static_cast<std::size_t>(id)], res);
    }
    return sum;
  };
  auto kill_worker = [&](std::size_t from, double at) {
    dead[from] = 1;
    ++dead_count;
    ++recovery.worker_crashes;
    events.push_back({.time = at,
                      .kind = obs::EventKind::kWorkerCrash,
                      .worker = static_cast<WorkerId>(from)});
    if (queue[from].empty()) return;
    const Resource mine = platform.type_of(static_cast<WorkerId>(from));
    std::size_t target = workers;
    double target_work = 0.0;
    bool target_same_type = false;
    for (std::size_t w = 0; w < workers; ++w) {
      if (w == from || dead[w] != 0 || crash_time[w] <= at) continue;
      const bool same =
          platform.type_of(static_cast<WorkerId>(w)) == mine;
      const double work = remaining_work(w);
      const bool better =
          target == workers || (same && !target_same_type) ||
          (same == target_same_type &&
           (work < target_work || (work == target_work && w < target)));
      if (better) {
        target = w;
        target_work = work;
        target_same_type = same;
      }
    }
    if (target == workers) {
      // Nobody left: everything still queued is unfinishable.
      for (TaskId id : queue[from]) {
        if (state[static_cast<std::size_t>(id)] == TaskState::kPending) {
          state[static_cast<std::size_t>(id)] = TaskState::kDead;
        }
      }
      queue[from].clear();
      return;
    }
    // Merge by queue key; ties keep the surviving worker's task first.
    std::deque<TaskId> merged;
    auto& a = queue[target];
    auto& b = queue[from];
    while (!a.empty() || !b.empty()) {
      const bool take_a =
          !a.empty() &&
          (b.empty() || queue_key(a.front()) <= queue_key(b.front()));
      if (take_a) {
        merged.push_back(a.front());
        a.pop_front();
      } else {
        merged.push_back(b.front());
        b.pop_front();
      }
    }
    queue[target] = std::move(merged);
    queue[from].clear();
  };

  // Greedy loop: the earliest-startable head of any queue runs next (ties:
  // lowest worker id), plus the fault reactions.
  bool live = true;
  while (live) {
    live = false;
    std::size_t best_w = workers;
    TaskId best_id = kInvalidTask;
    double best_start = 0.0;
    bool restructured = false;
    for (std::size_t w = 0; w < workers && !restructured; ++w) {
      while (!queue[w].empty() &&
             state[static_cast<std::size_t>(queue[w].front())] ==
                 TaskState::kDead) {
        queue[w].pop_front();  // abandoned while queued (cascade)
      }
      if (queue[w].empty()) continue;
      const TaskId id = queue[w].front();
      double ready = std::max(worker_free[w],
                              min_start[static_cast<std::size_t>(id)]);
      bool blocked = false;
      for (TaskId pred : graph.predecessors(id)) {
        const auto pi = static_cast<std::size_t>(pred);
        if (state[pi] == TaskState::kDead) {
          // A dependency can never finish: neither can this task.
          state[static_cast<std::size_t>(id)] = TaskState::kDead;
          queue[w].pop_front();
          restructured = true;
          break;
        }
        if (completion[pi] < 0.0) {
          blocked = true;
          break;
        }
        ready = std::max(ready, completion[pi]);
      }
      if (restructured || blocked) continue;
      if (crash_time[w] <= ready) {
        // The worker dies before it can start anything more.
        kill_worker(w, crash_time[w]);
        restructured = true;
        break;
      }
      if (best_w == workers || ready < best_start ||
          (ready == best_start && w < best_w)) {
        best_w = w;
        best_id = id;
        best_start = ready;
      }
    }
    if (restructured) {
      live = true;
      continue;
    }
    if (best_w == workers) {
      // Either all queues drained, or every head is blocked. The latter is
      // unreachable while queues stay planned-start sorted (dependencies
      // always have earlier planned starts); abandon defensively if it
      // ever happens rather than spinning.
      bool anything_left = false;
      for (std::size_t w = 0; w < workers; ++w) {
        for (TaskId id : queue[w]) {
          if (state[static_cast<std::size_t>(id)] == TaskState::kPending) {
            state[static_cast<std::size_t>(id)] = TaskState::kDead;
            anything_left = true;
          }
        }
        queue[w].clear();
      }
      assert(!anything_left && "faulty replay wedged on blocked heads");
      (void)anything_left;
      break;
    }

    queue[best_w].pop_front();
    const auto ti = static_cast<std::size_t>(best_id);
    const Resource res = platform.type_of(static_cast<WorkerId>(best_w));
    const double dt = Platform::time_on(actuals[ti], res);
    const AttemptOutcome outcome =
        faults.attempt_outcome(best_id, failed_attempts[ti]);
    const double work = outcome.fails ? dt * outcome.fail_fraction : dt;
    const double finish = faults.finish_time(static_cast<WorkerId>(best_w),
                                             best_start, work);
    events.push_back({.time = best_start,
                      .kind = obs::EventKind::kStart,
                      .task = best_id,
                      .worker = static_cast<WorkerId>(best_w)});
    if (crash_time[best_w] < finish) {
      // Crash mid-flight: progress lost, no budget charge, the task and the
      // rest of the queue fail over together.
      const double at = crash_time[best_w];
      result.schedule.add_aborted(best_id, static_cast<WorkerId>(best_w),
                                  best_start, at);
      events.push_back({.time = at,
                        .kind = obs::EventKind::kAbort,
                        .task = best_id,
                        .worker = static_cast<WorkerId>(best_w)});
      queue[best_w].push_front(best_id);
      ++recovery.crash_requeues;
      kill_worker(best_w, at);
      live = true;
      continue;
    }
    if (outcome.fails) {
      result.schedule.add_aborted(best_id, static_cast<WorkerId>(best_w),
                                  best_start, finish);
      events.push_back({.time = finish,
                        .kind = obs::EventKind::kAbort,
                        .task = best_id,
                        .worker = static_cast<WorkerId>(best_w)});
      const int failures = ++failed_attempts[ti];
      ++recovery.task_failures;
      events.push_back({.time = finish,
                        .kind = obs::EventKind::kTaskFail,
                        .task = best_id,
                        .worker = static_cast<WorkerId>(best_w),
                        .value = static_cast<double>(failures - 1)});
      worker_free[best_w] = finish;
      if (failures >= faults.max_attempts()) {
        state[ti] = TaskState::kDead;
        ++recovery.tasks_abandoned;
      } else {
        ++recovery.task_retries;
        min_start[ti] = finish + faults.backoff_delay(failures);
        events.push_back({.time = min_start[ti],
                          .kind = obs::EventKind::kTaskRetry,
                          .task = best_id,
                          .value = static_cast<double>(failures)});
        queue[best_w].push_front(best_id);  // retry in place, after backoff
      }
      live = true;
      continue;
    }
    result.schedule.place(best_id, static_cast<WorkerId>(best_w), best_start,
                          finish);
    completion[ti] = finish;
    state[ti] = TaskState::kDone;
    worker_free[best_w] = finish;
    events.push_back({.time = finish,
                      .kind = obs::EventKind::kComplete,
                      .task = best_id,
                      .worker = static_cast<WorkerId>(best_w)});
    live = true;
  }

  const double makespan = result.schedule.makespan();
  // Crashes and straggler windows that fell inside the run but never had to
  // restructure anything still happened — report them.
  for (const CrashEvent& c : faults.crashes()) {
    if (c.worker < 0 || static_cast<std::size_t>(c.worker) >= workers) continue;
    if (dead[static_cast<std::size_t>(c.worker)] != 0) continue;
    if (c.time > makespan) continue;
    ++recovery.worker_crashes;
    events.push_back({.time = c.time,
                      .kind = obs::EventKind::kWorkerCrash,
                      .worker = c.worker});
  }
  for (const StragglerWindow& w : faults.stragglers()) {
    if (w.worker < 0 || static_cast<std::size_t>(w.worker) >= workers ||
        w.begin > makespan) {
      continue;
    }
    ++recovery.straggler_windows;
    events.push_back({.time = w.begin,
                      .kind = obs::EventKind::kWorkerSlowBegin,
                      .worker = w.worker,
                      .value = w.slowdown});
    events.push_back({.time = w.end,
                      .kind = obs::EventKind::kWorkerSlowEnd,
                      .worker = w.worker});
  }
  for (std::size_t i = 0; i < total; ++i) {
    if (state[i] != TaskState::kDone) ++recovery.tasks_unfinished;
  }
  recovery.degraded = recovery.tasks_unfinished > 0;
  if (recovery.degraded) {
    events.push_back({.time = makespan,
                      .kind = obs::EventKind::kRunDegraded,
                      .value = static_cast<double>(recovery.tasks_unfinished)});
  }

  obs::sort_events(events);
  if (sink != nullptr) {
    for (const obs::Event& e : events) sink->on_event(e);
  }
  return result;
}

}  // namespace hp::fault
