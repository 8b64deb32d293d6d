#pragma once
// Reference HeteroPrio engine: the straightforward implementation kept as a
// behavioral oracle for the optimized engine in core/heteroprio.cpp.
//
// This is the pre-optimization code path: the ready set is an ordered
// std::set fed one insert at a time, and every spoliation attempt collects
// and sorts the busy workers of the other resource from scratch. It is
// O(n log n) with much larger constants (and O(W log W) per idle scan), but
// trivially auditable against Algorithm 1 of the paper. The optimized engine
// must produce bitwise-identical schedules; tests/test_hp_regression.cpp
// enforces that, and BENCH_core.json reports the speedup.

#include <span>

#include "core/heteroprio.hpp"
#include "dag/task_graph.hpp"

namespace hp {

/// Reference HeteroPrio for independent tasks. Same contract as heteroprio().
[[nodiscard]] Schedule heteroprio_reference(std::span<const Task> tasks,
                                            const Platform& platform,
                                            const HeteroPrioOptions& options = {},
                                            HeteroPrioStats* stats = nullptr);

/// Reference HeteroPrio for DAGs. Same contract as heteroprio_dag().
[[nodiscard]] Schedule heteroprio_dag_reference(
    const TaskGraph& graph, const Platform& platform,
    const HeteroPrioOptions& options = {}, HeteroPrioStats* stats = nullptr);

namespace detail {

/// Shared entry point mirroring detail::run_heteroprio.
[[nodiscard]] Schedule run_heteroprio_reference(std::span<const Task> tasks,
                                                const TaskGraph* graph,
                                                const Platform& platform,
                                                const HeteroPrioOptions& options,
                                                HeteroPrioStats* stats);

}  // namespace detail

}  // namespace hp
