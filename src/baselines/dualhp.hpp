#pragma once
// DualHP — dual-approximation scheduler of Bleuse et al. [15], re-implemented
// from the paper's §6 description.
//
// For a guess lambda on the makespan, the algorithm either produces a
// schedule of length <= 2*lambda or proves lambda < C_max^Opt:
//   * any task longer than lambda on one resource is forced to the other
//     (infeasible if both exceed lambda);
//   * the remaining tasks are assigned to the GPUs by decreasing
//     acceleration factor while the resulting (load-balanced) makespan stays
//     within 2*lambda;
//   * the rest goes to the CPUs; the guess is feasible if every load is
//     within 2*lambda.
// The best lambda is found by binary search. For DAGs, the assignment is
// recomputed over the currently-ready set whenever tasks become ready,
// counting the residual work of executing tasks into the loads (§6.2).
//
// Priorities: tasks are dispatched per resource in decreasing priority
// (avg/min bottom levels, assigned by the caller via assign_priorities) or
// in ready order when `fifo_order` is set.

#include <span>

#include "dag/task_graph.hpp"
#include "model/platform.hpp"
#include "obs/event.hpp"
#include "sched/schedule.hpp"

namespace hp {

namespace obs {
class MetricsCollector;  // obs/profile.hpp
}

struct DualHpOptions {
  bool fifo_order = false;   ///< ignore priorities; dispatch in ready order
  int bisection_iters = 16;  ///< binary-search refinement steps on lambda
  /// Receives the finished schedule replayed as an event stream
  /// (obs::replay_schedule).
  obs::EventSink* sink = nullptr;
  /// Phase self-profiling (obs/profile.hpp): the lambda bisection, sampled.
  /// Null costs one pointer test per scope.
  obs::MetricsCollector* metrics = nullptr;
};

/// DualHP for independent tasks.
[[nodiscard]] Schedule dualhp(std::span<const Task> tasks,
                              const Platform& platform,
                              const DualHpOptions& options = {});

/// DualHP adapted to DAGs (§6.2). Graph must be finalized and acyclic; task
/// priorities must be assigned by the caller unless fifo_order is set.
[[nodiscard]] Schedule dualhp_dag(const TaskGraph& graph,
                                  const Platform& platform,
                                  const DualHpOptions& options = {});

namespace detail {

/// Result of one dual-approximation guess.
struct DualTry {
  bool feasible = false;
  /// Per candidate (same order as the `candidates` argument): chosen side.
  /// Meaningful only when `feasible`.
  std::vector<Resource> side;
};

/// Attempt the assignment for guess `lambda`. `candidates` must be sorted by
/// non-increasing acceleration factor; `cpu_loads`/`gpu_loads` carry the
/// residual work of each worker (zeros for an empty platform).
[[nodiscard]] DualTry dual_try(std::span<const Task> tasks,
                               std::span<const TaskId> candidates,
                               double lambda,
                               std::span<const double> cpu_loads,
                               std::span<const double> gpu_loads);

/// dual_try at every guess of `lambdas`, in order, on one prepared solve
/// whose floor is the smallest guess: the way the bisection tries them, so
/// the state it builds once per solve is shared across the guesses.
[[nodiscard]] std::vector<DualTry> dual_tries(
    std::span<const Task> tasks, std::span<const TaskId> candidates,
    std::span<const double> lambdas, std::span<const double> cpu_loads,
    std::span<const double> gpu_loads);

}  // namespace detail

}  // namespace hp
