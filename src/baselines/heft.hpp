#pragma once
// HEFT — Heterogeneous Earliest Finish Time (Topcuoglu et al. [11]).
//
// The first class of schedulers discussed in §1/§6: tasks are sorted by
// upward rank (bottom level) and each is placed on the worker that
// completes it earliest, with insertion into idle gaps. There are no
// communication costs in the paper's model. Bleuse et al. [3] show HEFT can
// be Θ(m) from optimal on CPU+GPU platforms; the Fig 6/7 benches reproduce
// its weakness (it ignores acceleration factors).

#include <span>

#include "dag/ranking.hpp"
#include "dag/task_graph.hpp"
#include "model/platform.hpp"
#include "obs/event.hpp"
#include "sched/schedule.hpp"

namespace hp {

namespace obs {
class MetricsCollector;  // obs/profile.hpp
}
namespace util {
class Arena;  // util/arena.hpp
}
struct CommModel;  // comm/comm_model.hpp

struct HeftOptions {
  RankScheme rank = RankScheme::kAvg;  ///< avg or min (§6.2); kFifo invalid
  bool insertion = true;  ///< insertion-based placement (classic HEFT)
  /// Receives the finished schedule replayed as an event stream
  /// (obs::replay_schedule), so static planners feed the same exporters
  /// and counters as the dynamic schedulers.
  obs::EventSink* sink = nullptr;
  /// Phase self-profiling (obs/profile.hpp): rank ordering and the
  /// per-task gap search, sampled. Null costs one pointer test per scope.
  obs::MetricsCollector* metrics = nullptr;
};

/// HEFT on a DAG. Graph must be finalized and acyclic.
[[nodiscard]] Schedule heft(const TaskGraph& graph, const Platform& platform,
                            const HeftOptions& options = {});

/// HEFT on independent tasks: rank reduces to the task's own weight; the
/// highest-rank task is repeatedly placed on the worker finishing it first.
[[nodiscard]] Schedule heft_independent(std::span<const Task> tasks,
                                        const Platform& platform,
                                        const HeftOptions& options = {});

namespace detail {

/// HEFT's placement order: task ids by decreasing `rank`, ties in
/// topological order. The ids live in `arena`.
[[nodiscard]] std::span<const TaskId> rank_order(const TaskGraph& graph,
                                                 std::span<const double> rank,
                                                 util::Arena& arena);

/// Place the tasks of `order` one by one on the worker that finishes each
/// earliest; of `options` only `insertion` and `metrics` are read. With
/// a `graph`, a task is ready once its predecessors end; with `comm` too,
/// each predecessor's output of `payloads[pred]` MB must also reach the
/// worker, so the ready time is per worker.
[[nodiscard]] Schedule heft_run(std::span<const Task> tasks,
                                const TaskGraph* graph,
                                const Platform& platform,
                                const HeftOptions& options,
                                std::span<const TaskId> order,
                                const CommModel* comm = nullptr,
                                std::span<const double> payloads = {});

}  // namespace detail

}  // namespace hp
