#pragma once
// Lower bound on the makespan of a DAG schedule.
//
// The paper's Fig 7 normalizes against "the lower bound obtained by adding
// dependency constraints to the area bound [12]". We use three components
// (see DESIGN.md §1 for the substitution note):
//   * the area bound of the task set (work argument);
//   * the critical path of the DAG with min(p, q) node weights (no schedule
//     can beat the chain of minimum execution times);
//   * a segmented area bound interpolating the two: for any earliest-start
//     threshold T over the min-weight top levels, Cmax >= T + AreaBound of
//     the tasks that cannot start before T; symmetrically for tasks that
//     must be followed by a min-weight chain of length B,
//     Cmax >= B + AreaBound of those tasks. Both arguments are exact, so
//     the combined value remains a true lower bound.

#include "bounds/area_bound.hpp"
#include "dag/task_graph.hpp"
#include "model/platform.hpp"

namespace hp {

struct DagLowerBound {
  double area = 0.0;           ///< AreaBound over all tasks
  double critical_path = 0.0;  ///< CP with min(p,q) weights
  double max_min_time = 0.0;   ///< max over tasks of min(p_i, q_i)
  double segmented = 0.0;      ///< best segmented area bound (0 if skipped)

  [[nodiscard]] double value() const noexcept {
    double v = area;
    if (critical_path > v) v = critical_path;
    if (max_min_time > v) v = max_min_time;
    if (segmented > v) v = segmented;
    return v;
  }
};

struct DagLowerBoundOptions {
  /// Number of threshold candidates per direction for the segmented bound;
  /// 0 disables it. Cost is O(T log T + thresholds * T): the tasks are sorted
  /// into the area bound's scan order once, and each threshold walks it.
  int segment_thresholds = 24;
};

/// Graph must be finalized and acyclic.
[[nodiscard]] DagLowerBound dag_lower_bound(const TaskGraph& graph,
                                            const Platform& platform,
                                            const DagLowerBoundOptions& options = {});

}  // namespace hp
