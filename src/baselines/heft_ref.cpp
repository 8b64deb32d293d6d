// Verbatim seed implementation of HEFT (see heft_ref.hpp). Do not optimize:
// its value is being the trivially auditable oracle the flat-gap engine of
// baselines/heft.cpp is regression-tested against.

#include "baselines/heft_ref.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <vector>

#include "obs/replay.hpp"

namespace hp {

namespace {

/// Busy intervals of one worker, kept sorted by start time.
class WorkerTimelineRef {
 public:
  /// Earliest start >= ready for a block of length `dt`.
  /// With insertion, scans the gaps that end after `ready`; otherwise
  /// appends after the last segment.
  [[nodiscard]] double earliest_start(double ready, double dt,
                                      bool insertion) const {
    if (segments_.empty()) return ready;
    if (!insertion) return std::max(ready, segments_.back().end);
    // First segment that could bound a usable gap: binary search on end.
    auto it = std::lower_bound(
        segments_.begin(), segments_.end(), ready,
        [](const Segment& s, double t) { return s.end <= t; });
    // Gap before *it (between previous segment / ready and it->start).
    double candidate = ready;
    if (it != segments_.begin()) candidate = std::max(ready, std::prev(it)->end);
    while (it != segments_.end()) {
      if (candidate + dt <= it->start) return candidate;
      candidate = std::max(candidate, it->end);
      ++it;
    }
    return candidate;
  }

  void insert(double start, double end) {
    Segment seg{start, end};
    auto it = std::lower_bound(
        segments_.begin(), segments_.end(), seg,
        [](const Segment& a, const Segment& b) { return a.start < b.start; });
    segments_.insert(it, seg);
  }

 private:
  struct Segment {
    double start;
    double end;
  };
  std::vector<Segment> segments_;
};

Schedule heft_run_ref(std::span<const Task> tasks, const TaskGraph* graph,
                      const Platform& platform, const HeftOptions& options,
                      const std::vector<TaskId>& order) {
  Schedule schedule(tasks.size());
  std::vector<WorkerTimelineRef> timeline(
      static_cast<std::size_t>(platform.workers()));

  for (TaskId id : order) {
    const Task& t = tasks[static_cast<std::size_t>(id)];
    double ready = 0.0;
    if (graph != nullptr) {
      for (TaskId pred : graph->predecessors(id)) {
        ready = std::max(ready, schedule.placement(pred).end);
      }
    }
    WorkerId best_w = 0;
    double best_start = 0.0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (WorkerId w = 0; w < platform.workers(); ++w) {
      const double dt = Platform::time_on(t, platform.type_of(w));
      const double start = timeline[static_cast<std::size_t>(w)].earliest_start(
          ready, dt, options.insertion);
      if (start + dt < best_finish) {
        best_finish = start + dt;
        best_start = start;
        best_w = w;
      }
    }
    timeline[static_cast<std::size_t>(best_w)].insert(best_start, best_finish);
    schedule.place(id, best_w, best_start, best_finish);
  }
  return schedule;
}

}  // namespace

Schedule heft_ref(const TaskGraph& graph, const Platform& platform,
                  const HeftOptions& options) {
  assert(graph.finalized());
  assert(options.rank != RankScheme::kFifo && "HEFT requires a rank scheme");

  const std::vector<double> rank = bottom_levels(graph, options.rank);
  std::vector<TaskId> order(graph.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  // Decreasing upward rank. With strictly positive weights this is a
  // topological order (a predecessor's rank strictly exceeds its
  // successors'); break rank ties topologically via a stable sort on a
  // topological baseline.
  const std::vector<TaskId> topo = graph.topological_order();
  std::vector<std::size_t> topo_pos(graph.size());
  for (std::size_t i = 0; i < topo.size(); ++i) {
    topo_pos[static_cast<std::size_t>(topo[i])] = i;
  }
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    const double ra = rank[static_cast<std::size_t>(a)];
    const double rb = rank[static_cast<std::size_t>(b)];
    if (ra != rb) return ra > rb;
    return topo_pos[static_cast<std::size_t>(a)] <
           topo_pos[static_cast<std::size_t>(b)];
  });
  Schedule schedule =
      heft_run_ref(graph.tasks(), &graph, platform, options, order);
  obs::replay_schedule_to(schedule, platform, options.sink);
  return schedule;
}

Schedule heft_independent_ref(std::span<const Task> tasks,
                              const Platform& platform,
                              const HeftOptions& options) {
  assert(options.rank != RankScheme::kFifo && "HEFT requires a rank scheme");
  std::vector<TaskId> order(tasks.size());
  std::iota(order.begin(), order.end(), TaskId{0});
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    const double ra =
        rank_weight(tasks[static_cast<std::size_t>(a)], options.rank);
    const double rb =
        rank_weight(tasks[static_cast<std::size_t>(b)], options.rank);
    if (ra != rb) return ra > rb;
    return a < b;
  });
  Schedule schedule = heft_run_ref(tasks, nullptr, platform, options, order);
  obs::replay_schedule_to(schedule, platform, options.sink);
  return schedule;
}

}  // namespace hp
