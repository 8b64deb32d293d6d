#pragma once
// HeteroPrio for a set of independent tasks (the paper's Algorithm 1).
//
// Ready tasks are kept in a double-ended queue sorted by non-increasing
// acceleration factor. An idle GPU takes the task at the head (most
// GPU-friendly); an idle CPU takes the task at the tail (most CPU-friendly).
// Ties in the acceleration factor are broken by the offline priority: the
// highest-priority task is placed first in queue order for rho >= 1 and last
// for rho < 1 (§2.2) — so whichever resource pops that group first gets the
// highest-priority task of the group.
//
// When a worker is idle and no ready task remains, it attempts *spoliation*
// (§2.1): it scans the tasks running on the other resource type in
// decreasing order of expected completion time (ties: highest priority
// first) and restarts the first task it would complete strictly earlier.
// The victim's progress is lost and recorded as an aborted segment.

#include <span>

#include "fault/fault_plan.hpp"
#include "model/platform.hpp"
#include "model/task.hpp"
#include "obs/event.hpp"
#include "sched/schedule.hpp"

namespace hp {

namespace obs {
class MetricsCollector;  // obs/profile.hpp
}

/// Order in which running tasks are scanned for spoliation.
enum class VictimOrder {
  kAuto,            ///< kCompletionTime for independent tasks (Algorithm 1),
                    ///< kPriority for DAGs (§6.2)
  kCompletionTime,  ///< decreasing expected completion time, ties by priority
  kPriority,        ///< decreasing priority, ties by completion time
};

struct HeteroPrioOptions {
  /// Disable to obtain the pure list schedule S_HP^NS of §4.1.
  bool enable_spoliation = true;
  VictimOrder victim_order = VictimOrder::kAuto;
  /// Actual per-task execution times, parallel to the scheduled tasks.
  /// When non-empty, the scheduler *decides* with the (estimated) task
  /// times — queue order, expected completion times, spoliation tests —
  /// but tasks *run* for their actual times, modeling a runtime system
  /// whose duration estimates are imperfect (§1). Empty: actual = estimate.
  std::span<const Task> actual_times = {};
  /// Structured event stream (obs/): ready, start, complete, abort,
  /// spoliate-attempt/skip/commit, queue-depth samples and idle intervals.
  /// Null keeps the hot path at a single pointer test per decision (and
  /// -DHP_OBS_OFF removes even that).
  obs::EventSink* sink = nullptr;
  /// Phase self-profiling (obs/profile.hpp): engine total, SoA key build,
  /// sort, dispatch, ready update and spoliation scan, with per-item phases
  /// deterministically sampled. Never read for decisions — the schedule is
  /// bitwise identical with and without a collector, and attaching one does
  /// not leave the independent fast path. Null costs one pointer test per
  /// scope (-DHP_OBS_OFF: nothing).
  obs::MetricsCollector* metrics = nullptr;
  /// Fault plan to inject (crashes, stragglers, task failures); the engine
  /// recovers online — aborts and re-enqueues in-flight work of crashed
  /// workers, retries failed attempts up to the plan's budget, and declares
  /// the run degraded when work cannot finish. Null or empty plans are a
  /// strict no-op: the run is bitwise identical to one without the option.
  /// The plan outlives the call; the scheduler never reads it for decisions.
  const fault::FaultPlan* faults = nullptr;
};

/// Observability counters of one HeteroPrio run.
struct HeteroPrioStats {
  /// First instant a worker found no ready task (T_FirstIdle of §4.1 when
  /// spoliation is disabled). Infinity if never idle before the end.
  double first_idle_time = 0.0;
  int spoliations = 0;          ///< successful spoliations
  int spoliation_attempts = 0;  ///< idle scans that looked for a victim
  /// Idle scans skipped outright because no worker of the other resource
  /// type was busy (no victim could exist). Not counted as attempts.
  int spoliation_skips = 0;
  /// Online-recovery outcome when HeteroPrioOptions::faults was set;
  /// default-initialized (all zero, not degraded) otherwise.
  fault::RecoveryReport recovery;
};

/// Schedule `tasks` on `platform` with HeteroPrio. Deterministic.
[[nodiscard]] Schedule heteroprio(std::span<const Task> tasks,
                                  const Platform& platform,
                                  const HeteroPrioOptions& options = {},
                                  HeteroPrioStats* stats = nullptr);

}  // namespace hp
