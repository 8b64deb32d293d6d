#pragma once
// Replay a static plan (HEFT, DualHP) under actual task times and a fault
// plan. This is the library's only static-plan executor: with an empty
// FaultPlan it keeps the plan's worker assignment and per-worker order and
// starts each task as soon as its worker is free and its predecessors have
// completed — how the noise-robustness experiments replay static plans.
//
// The dynamic HeteroPrio engine recovers from faults by rescheduling online.
// A static plan cannot do that — but a fair comparison must not let it die
// at the first crash either. This replay models the strongest reasonable
// static runtime: it keeps the plan's worker assignment and per-worker order
// while the world cooperates, and applies a fixed, plan-agnostic failover
// policy when it does not:
//
//   * Crash: the in-flight task is aborted at the crash instant and, with
//     the crashed worker's remaining queue, moved to the surviving worker of
//     the same resource type with the least remaining planned work (ties:
//     lowest id; any surviving type when the victim's type died out). The
//     merge preserves planned start order (a zero-length placement before
//     a positive one at the same instant), which keeps the greedy replay
//     deadlock-free.
//   * Straggler window: the attempt simply takes longer (same piecewise
//     integration as the engine); the plan is not re-sequenced.
//   * Task failure: the attempt aborts at its fail point and the task is
//     retried on the same worker after the plan's backoff, until the
//     attempt budget runs out and the task (with every transitive
//     dependent) is abandoned — the run is then degraded.
//
// Determinism: the replay reads only the plan, the graph and the FaultPlan;
// attempt outcomes are the same pure (seed, task, attempt) draws the engine
// sees, so engine-vs-replay comparisons face identical fault realities.

#include <span>
#include <vector>

#include "dag/task_graph.hpp"
#include "fault/fault_plan.hpp"
#include "model/platform.hpp"
#include "obs/event.hpp"
#include "sched/schedule.hpp"

namespace hp::fault {

struct FaultyReplayResult {
  Schedule schedule;
  RecoveryReport recovery;
  /// Lifecycle and fault events of the replay, time-sorted (ready events
  /// are not synthesized; starts, completes, aborts and the fault kinds
  /// are). Also pushed to the sink argument when one is given.
  std::vector<obs::Event> events;
};

/// Replay `plan` (which must place every task) under `faults`. Tasks run
/// for `actual_times` (empty: the graph's own times) stretched by straggler
/// windows. Unfinished tasks keep an unplaced Placement in the result
/// schedule; check with ScheduleCheckOptions{.require_complete = false}.
[[nodiscard]] FaultyReplayResult execute_plan_with_faults(
    const Schedule& plan, const TaskGraph& graph, const Platform& platform,
    const FaultPlan& faults, std::span<const Task> actual_times = {},
    obs::EventSink* sink = nullptr);

}  // namespace hp::fault
