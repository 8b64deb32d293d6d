#pragma once
// Internal: the one HeteroPrio event loop behind heteroprio(),
// heteroprio_dag(), online::online_run*() and heteroprio_comm(). Not part of
// the public API; include core/heteroprio.hpp, core/heteroprio_dag.hpp,
// online/runtime.hpp or comm/comm_sched.hpp instead.
//
// A batch run is an online run whose tasks all arrive at t=0 with no
// deadlines, admission control or ticks, so both go through the same loop:
// batch calls pass no OnlineHooks, online calls add them. A
// communication-aware run is a batch DAG run whose starts wait for their
// inputs to move: it passes CommHooks.

#include <cstddef>
#include <cstdint>
#include <span>

#include "comm/comm_model.hpp"
#include "core/heteroprio.hpp"
#include "dag/task_graph.hpp"

namespace hp::detail {

/// What an online run adds to the loop: the arrival cursor's plan and the
/// admission, deadline and tick hooks. Each knob means what its namesake in
/// online::OnlineOptions (online/runtime.hpp) documents.
struct OnlineHooks {
  /// Arrival instant per task id; tasks beyond the span arrive at t=0.
  std::span<const double> arrival;
  /// Relative deadline per task id; <= 0, or beyond the span, means none.
  std::span<const double> rel_deadline;
  double reschedule_period = 0.0;  ///< <= 0: no ticks
  std::size_t watermark_high = 0;  ///< 0: no admission control
  std::size_t watermark_low = 0;   ///< already clamped below the high mark
  bool reject_when_shedding = false;
  double straggler_factor = 0.0;
  int respawn_budget = 0;
};

/// Counters only an online run keeps; online::OnlineStats carries them.
struct OnlineCounters {
  std::size_t tasks_arrived = 0;
  std::size_t tasks_admitted = 0;
  std::size_t tasks_rejected = 0;
  std::size_t tasks_deferred = 0;
  std::size_t deadline_misses = 0;
  std::size_t replans = 0;
  std::size_t reschedule_ticks = 0;
  std::size_t mode_changes = 0;
  std::uint8_t final_mode = 0;  ///< online::Mode
};

/// What a communication-aware run adds to the loop. A task started on
/// worker w first stages its inputs: each predecessor's payload moves from
/// the worker that produced it to w, all in parallel, so the delay is the
/// longest transfer. The delay lengthens the attempt and its believed
/// finish, and counts in a spoliation's candidate time. Each knob means
/// what its namesake in comm/comm_sched.hpp documents.
struct CommHooks {
  CommModel model;
  std::span<const double> payloads;  ///< output size (MB) per task id
  int locality_window = 1;           ///< queue keys an idle worker inspects
  double* transfer_time_total = nullptr;  ///< if set, the summed delays
};

/// Run HeteroPrio. When `graph` is null every task of `tasks` is
/// independent; otherwise `tasks` must be graph->tasks() and readiness
/// follows the dependencies. Without `online` every task is ready at t=0;
/// with it, tasks arrive from its plan and the online hooks run, and
/// `counters` (if set) receives their counts. `comm` needs a graph, and
/// is meant for batch runs without faults.
[[nodiscard]] Schedule run_heteroprio(std::span<const Task> tasks,
                                      const TaskGraph* graph,
                                      const Platform& platform,
                                      const HeteroPrioOptions& options,
                                      HeteroPrioStats* stats,
                                      const OnlineHooks* online = nullptr,
                                      OnlineCounters* counters = nullptr,
                                      const CommHooks* comm = nullptr);

}  // namespace hp::detail
