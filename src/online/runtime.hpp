#pragma once
// Rolling-horizon online runtime around the HeteroPrio engine.
//
// Tasks arrive over simulated time (online::ArrivalPlan). online_run and
// online_run_dag run the engine's one event loop (core/heteroprio.cpp)
// with the online hooks attached: arrivals from a cursor sorted by (time,
// id), deadlines from a cursor sorted by due time, completions from a
// per-worker finish array, and crashes, straggler edges, retries,
// reschedule ticks and abort wakeups from a simulated-time heap, all
// merged by one shared sequence number (docs/online.md). Re-planning is
// incremental: each instant inserts only the tasks it made ready, in one
// batch, into the shared double-ended ready structure
// (core/engine_parts.hpp) instead of re-sorting the frontier from
// scratch. On top of the planning loop sits the robustness policy:
//
//  - per-task deadlines with miss accounting (observation only — a missed
//    deadline never changes a decision),
//  - admission control with load shedding once the ready backlog crosses a
//    high watermark (hysteresis: shedding clears at the low watermark);
//    shed tasks are rejected or deferred, counted, never silently dropped,
//  - straggler detection at reschedule ticks that escalates to
//    spoliation/respawn (abort the overdue attempt, re-enqueue the task)
//    under a capped budget, reusing the fault layer's backoff machinery but
//    never charging the task's retry budget,
//  - an explicit degraded-mode state machine healthy -> degraded ->
//    shedding surfaced through obs:: events and counters.
//
// Correctness anchor (regression-tested): a run whose arrivals all occur
// at t=0 with no faults is bitwise-identical to the batch engine — the
// arrival batch drains before the initial dispatch, reproducing the batch
// engine's presorted ready set, and the rest of the run is the same loop
// over the same structures.

#include <cstdint>
#include <span>

#include "core/heteroprio.hpp"
#include "dag/task_graph.hpp"
#include "online/arrival.hpp"

namespace hp::online {

/// Degraded-mode state machine. kHealthy is left (for good) on the first
/// incident — fault, deadline miss, shed/defer, respawn; kShedding is
/// entered while the ready backlog holds at or above the high watermark and
/// left (back to kDegraded, never kHealthy) at the low watermark.
enum class Mode : std::uint8_t { kHealthy = 0, kDegraded = 1, kShedding = 2 };

/// Stable lowercase name, e.g. "shedding".
[[nodiscard]] const char* mode_name(Mode mode) noexcept;

/// What admission control does with a task arriving while shedding.
enum class ShedPolicy : std::uint8_t {
  kDefer,   ///< park in FIFO order; re-admitted when shedding clears
  kReject,  ///< never admitted; counted in OnlineStats::tasks_rejected
};

struct OnlineOptions {
  // Engine knobs, identical semantics to HeteroPrioOptions.
  bool enable_spoliation = true;
  VictimOrder victim_order = VictimOrder::kAuto;
  std::span<const Task> actual_times = {};
  obs::EventSink* sink = nullptr;
  obs::MetricsCollector* metrics = nullptr;
  const fault::FaultPlan* faults = nullptr;

  /// Arrival stream; null or empty means every task arrives at t=0. The
  /// plan's size need not match the task count: tasks beyond it arrive at
  /// t=0 with no deadline, and entries beyond the last task are ignored.
  const ArrivalPlan* arrivals = nullptr;

  /// Period of the rolling-horizon reschedule tick; <= 0 disables ticks.
  /// Ticks run the straggler scan and an extra dispatch pass. In a
  /// fault-free run they never change the schedule (spoliation
  /// profitability only decays as time advances).
  double reschedule_period = 0.0;

  /// Admission control: shedding starts when the ready backlog reaches
  /// `watermark_high` and clears when it drains to `watermark_low`
  /// (default: high / 2). 0 disables admission control entirely.
  std::size_t watermark_high = 0;
  std::size_t watermark_low = 0;
  ShedPolicy shed_policy = ShedPolicy::kDefer;

  /// Straggler respawn: at each reschedule tick, a running attempt overdue
  /// by more than `straggler_factor` x its estimate is aborted and
  /// re-enqueued (spoliation-style rescue). <= 1 disables detection;
  /// `respawn_budget` caps respawns per run (0 = unlimited once enabled).
  double straggler_factor = 0.0;
  int respawn_budget = 0;
};

/// The low watermark admission control runs with: `low` (0 means high / 2)
/// clamped to at most high - 1, so the hysteresis band is never empty and a
/// backlog at the high watermark cannot both keep and clear shedding. 0 when
/// `high` is 0 (admission control off). Shared by the online runtime and
/// serve::Service.
[[nodiscard]] std::size_t effective_watermark_low(std::size_t high,
                                                  std::size_t low) noexcept;

/// Outcome accounting of one online run. The zero-silent-drop invariant,
/// asserted by tests and the bench: tasks_arrived == n and
/// completed + tasks_rejected + recovery.tasks_unfinished == n (abandoned
/// tasks count toward unfinished, matching the batch engine's convention).
struct OnlineStats {
  std::size_t tasks_arrived = 0;   ///< arrival events processed (== n)
  std::size_t tasks_admitted = 0;  ///< passed admission (incl. re-admitted)
  std::size_t tasks_rejected = 0;  ///< shed under ShedPolicy::kReject
  std::size_t tasks_deferred = 0;  ///< parked under ShedPolicy::kDefer
  std::size_t deadline_misses = 0;
  std::size_t replans = 0;          ///< event batches that changed the frontier
  std::size_t reschedule_ticks = 0;
  std::size_t mode_changes = 0;
  Mode final_mode = Mode::kHealthy;

  // Engine counters, same meaning as HeteroPrioStats.
  double first_idle_time = 0.0;
  int spoliations = 0;
  int spoliation_attempts = 0;
  int spoliation_skips = 0;
  /// Fault recovery, including straggler_respawns.
  fault::RecoveryReport recovery;
};

/// Run the online runtime over independent `tasks`.
[[nodiscard]] Schedule online_run(std::span<const Task> tasks,
                                  const Platform& platform,
                                  const OnlineOptions& options = {},
                                  OnlineStats* stats = nullptr);

/// DAG variant: a task becomes ready once it has arrived, been admitted
/// *and* all its predecessors completed.
[[nodiscard]] Schedule online_run_dag(const TaskGraph& graph,
                                      const Platform& platform,
                                      const OnlineOptions& options = {},
                                      OnlineStats* stats = nullptr);

}  // namespace hp::online
