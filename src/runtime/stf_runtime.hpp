#pragma once
// A miniature sequential-task-flow (STF) runtime — the substrate the paper's
// schedulers live in (StarPU et al., §1).
//
// The application registers data handles and submits tasks sequentially,
// declaring per-task data accesses; the runtime infers the dependency DAG,
// computes priorities, schedules with any scheduler of runtime/dispatch.hpp
// (HeteroPrio by default) and "executes" on a simulated m-CPU + n-GPU node.
// Duration estimates may be noisy: decisions use the estimates, the
// simulated clock uses the actual times (§1's motivation for dynamic
// schedulers).
//
//   runtime::StfRuntime rt(Platform(20, 4));
//   auto a = rt.register_data("A00");
//   rt.submit(model.make_task(KernelKind::kPotrf), {runtime::RW(a)});
//   ...
//   double makespan = rt.run();

#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "core/heteroprio.hpp"
#include "dag/ranking.hpp"
#include "dag/task_graph.hpp"
#include "model/platform.hpp"
#include "obs/event.hpp"
#include "obs/watchdog.hpp"
#include "runtime/data.hpp"
#include "runtime/dispatch.hpp"
#include "sched/schedule.hpp"
#include "util/rng.hpp"

namespace hp::runtime {

struct RuntimeOptions {
  /// Scheduler the inferred DAG is dispatched to (runtime/dispatch.hpp):
  /// HeteroPrio runs online under the actual durations, a static HEFT or
  /// DualHP plan is replayed under them.
  SchedulerId scheduler = SchedulerId::kHp;
  /// Priority scheme for the inferred DAG (kFifo = submission order only).
  RankScheme rank = RankScheme::kMin;
  /// Multiplicative lognormal noise applied to actual task durations;
  /// 0 = estimates are exact.
  double noise_sigma = 0.0;
  std::uint64_t noise_seed = 1;
  /// Structured event stream of the run: HeteroPrio emits natively as
  /// decisions happen; static plans replay the realized schedule.
  obs::EventSink* sink = nullptr;
  /// Run the bound watchdog after the run: compares the realized makespan
  /// against dag_lower_bound times the proven ratio for the platform shape
  /// (advisory for DAGs — see obs/watchdog.hpp). Result via bound_check().
  /// Under faults, the shape is re-evaluated against the workers that
  /// survived to the end of the run.
  bool check_bounds = false;
  /// Fault plan to inject. HeteroPrio recovers online in the engine; the
  /// static plans are replayed through fault::execute_plan_with_faults.
  /// Outcome via recovery(). The plan must outlive the run.
  const fault::FaultPlan* faults = nullptr;
};

class StfRuntime {
 public:
  explicit StfRuntime(Platform platform, RuntimeOptions options = {});

  /// Register a piece of data; the name is only for DOT export/debugging.
  DataHandle register_data(std::string name = "");

  /// Submit a task touching the given data. Dependencies on previously
  /// submitted tasks are inferred from the access modes. Returns the task
  /// id. Must not be called after run().
  TaskId submit(const Task& timing, std::span<const DataAccess> accesses);
  TaskId submit(const Task& timing, std::initializer_list<DataAccess> accesses);

  [[nodiscard]] std::size_t num_tasks() const noexcept { return graph_.size(); }
  [[nodiscard]] std::size_t num_data() const noexcept { return data_.size(); }

  /// Schedule and simulate everything submitted so far. Returns the
  /// makespan. Idempotent until the next submit().
  double run();

  /// The inferred DAG (finalized by run()).
  [[nodiscard]] const TaskGraph& graph() const noexcept { return graph_; }
  /// The realized schedule (valid after run()).
  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }
  /// Actual durations used by the last run() (== estimates when sigma = 0).
  [[nodiscard]] std::span<const Task> actual_times() const noexcept {
    return actuals_;
  }
  /// HeteroPrio statistics of the last run() (zero for static plans).
  [[nodiscard]] const HeteroPrioStats& stats() const noexcept { return stats_; }
  /// Online-recovery outcome of the last run() (all zero without faults).
  [[nodiscard]] const fault::RecoveryReport& recovery() const noexcept {
    return stats_.recovery;
  }
  /// Watchdog verdict of the last run() (only meaningful when
  /// options.check_bounds was set).
  [[nodiscard]] const obs::BoundCheck& bound_check() const noexcept {
    return bound_check_;
  }

 private:
  struct DataState {
    std::string name;
    TaskId last_writer = kInvalidTask;
    std::vector<TaskId> readers_since_write;
  };

  Platform platform_;
  RuntimeOptions options_;
  TaskGraph graph_{"stf"};
  std::vector<DataState> data_;
  std::vector<Task> actuals_;
  Schedule schedule_;
  HeteroPrioStats stats_;
  obs::BoundCheck bound_check_;
  bool ran_ = false;
};

}  // namespace hp::runtime
