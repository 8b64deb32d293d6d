#pragma once
// Internal: shared HeteroPrio engine for independent tasks and DAGs.
// Not part of the public API; include core/heteroprio.hpp or
// core/heteroprio_dag.hpp instead.

#include <span>

#include "core/heteroprio.hpp"
#include "dag/task_graph.hpp"

namespace hp::detail {

/// Run HeteroPrio. When `graph` is null every task of `tasks` is ready at
/// time 0; otherwise `tasks` must be graph->tasks() and readiness follows
/// the dependencies.
[[nodiscard]] Schedule run_heteroprio(std::span<const Task> tasks,
                                      const TaskGraph* graph,
                                      const Platform& platform,
                                      const HeteroPrioOptions& options,
                                      HeteroPrioStats* stats);

}  // namespace hp::detail
