#pragma once
// One scheduler dispatch: the paper's four §6 schedulers behind one call.
//
// run_scheduler() owns every policy decision that picks and wires an
// engine, so the service (serve::execute_request), the fuzz oracle, the CLI
// and the STF runtime cannot drift apart:
//
//   * HeteroPrio runs with spoliation (kHp) or without (kHpNoSpol), as the
//     pure list schedule S_HP^NS of §4.1; faults and actual times are
//     handled online by the engine.
//   * A graph with edges goes to the DAG entry point of each scheduler, an
//     edge-free graph to the independent-task one.
//   * HEFT ranks by `rank`; kFifo has no HEFT meaning and falls back to
//     kAvg. DualHP dispatches in ready order under kFifo (`fifo_order`).
//   * A static plan (HEFT, DualHP) is replayed through
//     fault::execute_plan_with_faults exactly when the caller passes a
//     fault plan or actual times. The sink then gets the replay's events
//     when a fault plan was passed, and the realized schedule replayed as
//     a full event stream (obs::replay_schedule) otherwise.
//
// The dispatch is a pure function of its arguments: the same call returns
// the same schedule bitwise, which is what the service-vs-direct
// differential asserts.

#include <cstdint>
#include <span>
#include <string>

#include "core/heteroprio.hpp"
#include "dag/ranking.hpp"
#include "dag/task_graph.hpp"
#include "fault/fault_plan.hpp"
#include "model/platform.hpp"
#include "obs/event.hpp"
#include "sched/schedule.hpp"

namespace hp {

/// The scheduler a run is dispatched to. The values are part of the fuzz
/// report checksum; keep their order.
enum class SchedulerId : std::uint8_t { kHp = 0, kHpNoSpol, kHeft, kDualHp };
inline constexpr int kNumSchedulers = 4;

/// "hp", "hp-nospol", "heft", "dualhp".
[[nodiscard]] const char* scheduler_name(SchedulerId id) noexcept;
/// Inverse of scheduler_name(); false (and `*out` untouched) on an unknown
/// name.
[[nodiscard]] bool scheduler_from_name(const std::string& name,
                                       SchedulerId* out) noexcept;

/// True for the scheduler that runs HeteroPrio with spoliation.
[[nodiscard]] constexpr bool spoliates(SchedulerId id) noexcept {
  return id == SchedulerId::kHp;
}

/// The rank HEFT uses under `rank` (kFifo falls back to kAvg).
[[nodiscard]] RankScheme heft_rank(RankScheme rank) noexcept;

struct RunOptions {
  /// HEFT's rank and DualHP's dispatch order. DAG priorities are the
  /// caller's: the graph must arrive with them assigned.
  RankScheme rank = RankScheme::kMin;
  /// Fault plan to inject; must outlive the call. Non-null sends a static
  /// plan through the faulty replay, also when the plan is empty.
  const fault::FaultPlan* faults = nullptr;
  /// Actual per-task durations (empty: the estimates). Non-empty sends a
  /// static plan through the replay.
  std::span<const Task> actual_times = {};
  obs::EventSink* sink = nullptr;
  obs::MetricsCollector* metrics = nullptr;
};

struct RunResult {
  Schedule schedule;
  /// HeteroPrio's counters; for a static plan only `recovery` is set (all
  /// zero unless it was replayed).
  HeteroPrioStats stats;
};

[[nodiscard]] RunResult run_scheduler(SchedulerId id, const TaskGraph& graph,
                                      const Platform& platform,
                                      const RunOptions& options = {});

}  // namespace hp
