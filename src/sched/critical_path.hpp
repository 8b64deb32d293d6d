#pragma once
// Critical-path attribution over an *executed* schedule.
//
// Bottom-level ranks (dag/ranking.hpp) reason about the critical path of the
// input DAG; this module answers the engine-tuning question instead: in the
// schedule a policy actually produced, which chain of task executions and
// waits explains the makespan? Starting from the placement that ends last,
// each segment's start is attributed to the latest-finishing "explainer":
// a dependency predecessor that released the task, or the previous occupant
// of the same worker (including partial executions killed by spoliation).
// Gaps that no segment explains are charged as idle. The result is a chain
// of segments covering [0, makespan] whose composition (compute per kernel
// kind, dependency waits, worker-busy waits, idle) tells you what to tune:
// a dependency-dominated chain needs better priorities, a worker-dominated
// chain needs more resources or spoliation, an idle-heavy chain means the
// ready queue ran dry.

#include <span>
#include <string>
#include <vector>

#include "dag/task_graph.hpp"
#include "model/platform.hpp"
#include "model/task.hpp"
#include "obs/metrics.hpp"
#include "sched/schedule.hpp"

namespace hp {

/// How a chain segment enables the segment after it (its successor in time).
enum class CpLink {
  kMakespan,    ///< last segment of the chain; defines the makespan
  kDependency,  ///< successor waited for this task's completion (DAG edge)
  kWorker,      ///< successor waited for this worker to become free
};

[[nodiscard]] const char* cp_link_name(CpLink link) noexcept;

/// One segment of the critical chain, in execution order. Idle segments
/// (task == kInvalidTask) are uncovered gaps attributed to no task.
struct CpSegment {
  TaskId task = kInvalidTask;
  WorkerId worker = -1;
  double begin = 0.0;
  double end = 0.0;
  bool aborted = false;        ///< spoliated partial execution on the chain
  CpLink link = CpLink::kMakespan;

  [[nodiscard]] double span() const noexcept { return end - begin; }
  [[nodiscard]] bool is_idle() const noexcept { return task == kInvalidTask; }
};

struct CriticalPathReport {
  double makespan = 0.0;
  /// Chain segments ordered by begin time; spans tile [first.begin, makespan]
  /// without overlap. Empty iff the schedule placed nothing.
  std::vector<CpSegment> segments;

  // Aggregates over `segments`.
  double compute_time = 0.0;  ///< sum of non-idle spans
  double idle_time = 0.0;     ///< sum of idle spans
  double compute_by_kind[kNumKernelKinds] = {};
  std::size_t dependency_links = 0;  ///< segments that released a successor
  std::size_t worker_links = 0;      ///< segments that freed the worker
  std::size_t aborted_segments = 0;  ///< spoliated partials on the chain

  /// Fraction of the makespan attributed to task execution (1.0 = the chain
  /// is pure compute; low values mean waits/idle dominate).
  [[nodiscard]] double compute_fraction() const noexcept {
    return makespan > 0.0 ? compute_time / makespan : 0.0;
  }
};

/// Build the critical chain of `schedule`. `graph` supplies dependency
/// edges; pass nullptr for independent-task schedules (only worker-busy and
/// idle attribution apply). Tasks without a placement are skipped. O((n + e)
/// + n log n) in tasks and edges.
[[nodiscard]] CriticalPathReport build_critical_path(
    const Schedule& schedule, std::span<const Task> tasks,
    const Platform& platform, const TaskGraph* graph = nullptr);

/// Multi-line human rendering for `hp_sched report --critical-path`:
/// composition summary plus the longest chain segments.
[[nodiscard]] std::string describe(const CriticalPathReport& report,
                                   std::span<const Task> tasks,
                                   const Platform& platform,
                                   std::size_t max_segments = 12);

/// Write the report's aggregates as "cp_*" gauges into `registry`, next to
/// the scheduler counters (obs::add_to_registry).
void add_to_registry(const CriticalPathReport& report,
                     obs::MetricsRegistry* registry);

}  // namespace hp
