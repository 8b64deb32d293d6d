#include "core/heteroprio_ref.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "dag/ready_tracker.hpp"
#include "sim/event_queue.hpp"
#include "sim/worker_pool.hpp"

namespace hp {

namespace detail {

namespace {

/// Queue order: *begin() is the task an idle GPU takes, *rbegin() the task
/// an idle CPU takes. Primary key: acceleration factor, non-increasing.
/// Tie-break (§2.2): for rho >= 1 the highest-priority task comes first;
/// for rho < 1 the highest-priority task comes last, i.e. nearest the CPU
/// end. Final tie: task id (determinism).
struct QueueOrder {
  std::span<const Task> tasks;

  bool operator()(TaskId a, TaskId b) const noexcept {
    const Task& ta = tasks[static_cast<std::size_t>(a)];
    const Task& tb = tasks[static_cast<std::size_t>(b)];
    const double ra = ta.accel();
    const double rb = tb.accel();
    if (ra != rb) return ra > rb;
    if (ta.priority != tb.priority) {
      return ra >= 1.0 ? ta.priority > tb.priority : ta.priority < tb.priority;
    }
    return a < b;
  }
};

struct CompletionEvent {
  WorkerId worker;
  std::uint64_t generation;  ///< stale-event filter after spoliation aborts
};

/// Strict-improvement test with a small relative margin, so that the exact
/// "equal completion time" cases of Theorems 8/11/14 (where spoliation must
/// NOT fire) are not flipped by floating-point noise.
bool strictly_better(double candidate_finish, double current_finish) noexcept {
  const double margin =
      1e-9 * std::max(1.0, std::abs(current_finish));
  return candidate_finish < current_finish - margin;
}

}  // namespace

Schedule run_heteroprio_reference(std::span<const Task> tasks,
                                  const TaskGraph* graph,
                                  const Platform& platform,
                                  const HeteroPrioOptions& options,
                                  HeteroPrioStats* stats) {
  assert(graph == nullptr || graph->tasks().size() == tasks.size());
  // Estimated times drive every decision; actual times drive the clock.
  const std::span<const Task> actuals =
      options.actual_times.empty() ? tasks : options.actual_times;
  assert(actuals.size() == tasks.size());

  Schedule schedule(tasks.size());
  HeteroPrioStats local_stats;
  local_stats.first_idle_time = std::numeric_limits<double>::infinity();

  sim::WorkerPool pool(platform);
  sim::EventQueue<CompletionEvent> events;
  std::vector<std::uint64_t> generation(
      static_cast<std::size_t>(platform.workers()), 0);

  std::set<TaskId, QueueOrder> queue{QueueOrder{tasks}};
  std::optional<ReadyTracker> tracker;
  if (graph != nullptr) {
    tracker.emplace(*graph);
    for (TaskId id : tracker->initially_ready()) queue.insert(id);
  } else {
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      queue.insert(static_cast<TaskId>(i));
    }
  }

  std::size_t completed = 0;
  double now = 0.0;

  auto start_task = [&](WorkerId w, TaskId id) {
    const double dt = Platform::time_on(actuals[static_cast<std::size_t>(id)],
                                        platform.type_of(w));
    const double finish = pool.start(w, id, now, dt);
    ++generation[static_cast<std::size_t>(w)];
    events.push(finish, CompletionEvent{w, generation[static_cast<std::size_t>(w)]});
  };

  VictimOrder victim_order = options.victim_order;
  if (victim_order == VictimOrder::kAuto) {
    victim_order = graph == nullptr ? VictimOrder::kCompletionTime
                                    : VictimOrder::kPriority;
  }

  // Attempt a spoliation by idle worker `w`: scan the tasks running on the
  // other resource type — in decreasing expected completion time for
  // independent tasks (Algorithm 1), in decreasing priority for DAGs
  // (§6.2) — and steal the first one `w` would finish strictly earlier.
  // Returns true if a task was stolen.
  // Expected completion time as the *scheduler* sees it: start time plus
  // the estimated duration (equals the event time when estimates are exact).
  auto believed_finish = [&](WorkerId w) {
    const sim::Running& r = pool.running(w);
    return r.start + Platform::time_on(tasks[static_cast<std::size_t>(r.task)],
                                       platform.type_of(w));
  };

  auto try_spoliate = [&](WorkerId w) -> bool {
    ++local_stats.spoliation_attempts;
    const Resource mine = platform.type_of(w);
    std::vector<WorkerId> victims = pool.busy_workers(other(mine));
    std::sort(victims.begin(), victims.end(), [&](WorkerId a, WorkerId b) {
      const double fa = believed_finish(a);
      const double fb = believed_finish(b);
      const double pa =
          tasks[static_cast<std::size_t>(pool.running(a).task)].priority;
      const double pb =
          tasks[static_cast<std::size_t>(pool.running(b).task)].priority;
      if (victim_order == VictimOrder::kPriority) {
        if (pa != pb) return pa > pb;
        if (fa != fb) return fa > fb;
      } else {
        if (fa != fb) return fa > fb;
        if (pa != pb) return pa > pb;
      }
      return pool.running(a).task < pool.running(b).task;
    });
    for (WorkerId victim : victims) {
      const sim::Running& r = pool.running(victim);
      const double dt =
          Platform::time_on(tasks[static_cast<std::size_t>(r.task)], mine);
      if (!strictly_better(now + dt, believed_finish(victim))) continue;
      // Abort the victim's execution; its progress is lost.
      const sim::Running aborted = pool.release(victim);
      ++generation[static_cast<std::size_t>(victim)];  // stale its event
      schedule.add_aborted(aborted.task, victim, aborted.start, now);
      ++local_stats.spoliations;
      start_task(w, aborted.task);
      return true;
    }
    return false;
  };

  // Offer work to every idle worker (GPUs first) until a full pass changes
  // nothing. Spoliation can idle a worker of the other type mid-pass, hence
  // the outer repeat.
  auto dispatch_idle = [&] {
    bool acted = true;
    while (acted) {
      acted = false;
      for (WorkerId w : pool.idle_workers_gpu_first()) {
        if (pool.busy(w)) continue;  // filled earlier in this pass
        if (!queue.empty()) {
          TaskId id;
          if (platform.type_of(w) == Resource::kGpu) {
            id = *queue.begin();
            queue.erase(queue.begin());
          } else {
            id = *std::prev(queue.end());
            queue.erase(std::prev(queue.end()));
          }
          start_task(w, id);
          acted = true;
        } else {
          local_stats.first_idle_time =
              std::min(local_stats.first_idle_time, now);
          if (options.enable_spoliation && try_spoliate(w)) acted = true;
        }
      }
    }
  };

  dispatch_idle();

  while (completed < tasks.size()) {
    assert(!events.empty() && "deadlock: no events but tasks incomplete");
    // Pop the batch of simultaneous valid completions.
    const double t = events.top().time;
    now = t;
    while (!events.empty() && events.top().time == t) {
      const auto ev = events.pop();
      const WorkerId w = ev.payload.worker;
      if (ev.payload.generation != generation[static_cast<std::size_t>(w)]) {
        continue;  // stale: the task was spoliated away
      }
      if (!pool.busy(w)) continue;
      const sim::Running done = pool.release(w);
      schedule.place(done.task, w, done.start, done.finish);
      ++completed;
      if (tracker.has_value()) {
        for (TaskId released : tracker->complete(done.task)) {
          queue.insert(released);
        }
      }
    }
    dispatch_idle();
  }

  if (stats != nullptr) {
    if (!std::isfinite(local_stats.first_idle_time)) {
      local_stats.first_idle_time = schedule.makespan();
    }
    *stats = local_stats;
  }
  return schedule;
}

}  // namespace detail

Schedule heteroprio_reference(std::span<const Task> tasks,
                              const Platform& platform,
                              const HeteroPrioOptions& options,
                              HeteroPrioStats* stats) {
  return detail::run_heteroprio_reference(tasks, nullptr, platform, options,
                                          stats);
}

Schedule heteroprio_dag_reference(const TaskGraph& graph,
                                  const Platform& platform,
                                  const HeteroPrioOptions& options,
                                  HeteroPrioStats* stats) {
  assert(graph.finalized());
  return detail::run_heteroprio_reference(graph.tasks(), &graph, platform,
                                          options, stats);
}

}  // namespace hp
