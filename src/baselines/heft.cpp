#include "baselines/heft.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include "comm/comm_model.hpp"
#include "model/task_soa.hpp"
#include "obs/profile.hpp"
#include "obs/replay.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

namespace hp {

namespace {

/// One worker's timeline under HEFT's insertion policy: the end of its last
/// busy block (`last_finish_`) plus the idle gaps before it, kept as one
/// start-sorted array of disjoint (start, end) pairs in the run's arena.
///
/// The seed implementation (kept as heft_ref) stores the busy segments
/// instead and walks them from the first one ending after `ready`. Its
/// candidates are `ready` inside the gap that straddles it and, after that,
/// each later gap's start; a candidate fits when `candidate + dt` does not
/// pass the gap's end. earliest_start() tests exactly those candidates with
/// exactly that comparison, so it returns the same double and schedules
/// stay bitwise identical (tests/test_heft_regression.cpp). Every gap ends
/// at or before `last_finish_`, so every gap start lies below the append
/// start and the forward scan needs no cutoff.
class WorkerTimeline {
 public:
  explicit WorkerTimeline(util::Arena& arena) : gaps_(arena) {}

  /// Earliest start >= ready for a block of length `dt`.
  [[nodiscard]] double earliest_start(double ready, double dt,
                                      bool insertion) const {
    const double append = std::max(ready, last_finish_);
    if (!insertion || gaps_.empty() || ready >= gaps_.span().back().end) {
      return append;
    }
    const Gap* it = gaps_.begin() + after(ready);
    // The unique gap with start <= ready < end, if any: its candidate is
    // `ready` itself, which no later gap and no append can beat.
    if (it != gaps_.begin() && ready < it[-1].end && ready + dt <= it[-1].end) {
      return ready;
    }
    for (; it != gaps_.end(); ++it) {
      if (it->start + dt <= it->end) return it->start;
    }
    return append;
  }

  void insert(double start, double end) {
    if (start >= last_finish_) {
      // Append: the idle stretch between the old horizon and the new block
      // becomes a gap.
      if (start > last_finish_) gaps_.push_back({last_finish_, start});
      last_finish_ = end;
      return;
    }
    // The block was placed at a feasible start, so it lies inside one
    // existing gap; shrink or split it.
    const std::size_t next = after(start);
    assert(next != 0);
    Gap* it = gaps_.begin() + (next - 1);
    assert(it->start <= start && end <= it->end);
    const Gap right{end, it->end};
    if (start > it->start) {
      it->end = start;
      if (right.end > right.start) gaps_.insert(it + 1, right);
    } else if (right.end > right.start) {
      *it = right;
    } else {
      gaps_.erase(it);
    }
  }

 private:
  struct Gap {
    double start;
    double end;
  };

  /// Index of the first gap starting after `t`.
  [[nodiscard]] std::size_t after(double t) const {
    return static_cast<std::size_t>(
        std::upper_bound(
            gaps_.begin(), gaps_.end(), t,
            [](double value, const Gap& gap) { return value < gap.start; }) -
        gaps_.begin());
  }

  double last_finish_ = 0.0;
  util::ArenaVector<Gap> gaps_;
};

/// Independent-mode inner loop. Every task is ready at 0, so placements only
/// ever append at a worker's horizon and no worker ever holds a gap:
/// the whole timeline state is one finish time per worker, kept in a flat
/// array the worker scan walks contiguously. Start times, worker choice and
/// tie-breaks are exactly heft_run's (append = max(0, last_finish), first
/// strictly-better worker wins), so schedules stay bitwise identical to
/// heft_ref (tests/test_heft_regression.cpp).
Schedule heft_independent_run(std::span<const Task> tasks,
                              const Platform& platform,
                              std::span<const util::KeyId> order,
                              const HeftOptions& options, util::Arena& arena) {
  Schedule schedule(tasks.size());
  const util::ArenaScope scope(arena);
  // One scope around the whole placement loop: the per-task body is a flat
  // ~W-lane scan of a few ns, where even a sampled per-task scope entry
  // would be measurable (heft_run, with its gap searches, affords per-task
  // sampling).
  const obs::PhaseScope gap_scope(options.metrics,
                                  obs::Phase::kHeftGapSearch);
  const auto wcount = static_cast<std::size_t>(platform.workers());
  const std::span<double> finish = arena.alloc_zeroed<double>(wcount);
  const auto cpus = static_cast<std::size_t>(platform.cpus());

  // The order visits tasks at random ids, so the loop waits on the misses
  // of each task and of its placement slot; prefetching a fixed distance
  // ahead overlaps them, as simulate_independent's gather does.
  constexpr std::size_t kAhead = 16;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k + kAhead < order.size()) {
      const std::uint32_t ahead = order[k + kAhead].id;
      __builtin_prefetch(&tasks[ahead]);
      __builtin_prefetch(&schedule.placement(static_cast<TaskId>(ahead)), 1);
    }
    const auto id = static_cast<TaskId>(order[k].id);
    const Task& t = tasks[order[k].id];
    const double dt_by_type[2] = {t.cpu_time, t.gpu_time};
    std::size_t best_w = 0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (std::size_t w = 0; w < wcount; ++w) {
      const double end = finish[w] + dt_by_type[w >= cpus ? 1 : 0];
      if (end < best_finish) {
        best_finish = end;
        best_w = w;
      }
    }
    schedule.place(id, static_cast<WorkerId>(best_w), finish[best_w],
                   best_finish);
    finish[best_w] = best_finish;
  }
  return schedule;
}

}  // namespace

namespace detail {

std::span<const TaskId> rank_order(const TaskGraph& graph,
                                   std::span<const double> rank,
                                   util::Arena& arena) {
  // With strictly positive weights this is a topological order (a
  // predecessor's rank strictly exceeds its successors'); rank ties break
  // topologically, which the packed sort gets for free by carrying the
  // topological position (not the task id) as the tie-break id. Ascending
  // (descending_key(rank), topo_pos) is exactly the reference comparator
  // (rank desc, topo order asc).
  const std::span<const TaskId> topo = graph.topo_order();
  const std::span<util::KeyId> keyed{arena.alloc<util::KeyId>(graph.size()),
                                     graph.size()};
  const std::span<TaskId> order{arena.alloc<TaskId>(graph.size()),
                                graph.size()};
  for (std::size_t i = 0; i < topo.size(); ++i) {
    keyed[i] = util::KeyId{
        soa::descending_key(rank[static_cast<std::size_t>(topo[i])]),
        static_cast<std::uint32_t>(i)};
  }
  util::sort_key_id(keyed, arena);
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    order[i] = topo[keyed[i].id];
  }
  return order;
}

Schedule heft_run(std::span<const Task> tasks, const TaskGraph* graph,
                  const Platform& platform, const HeftOptions& options,
                  std::span<const TaskId> order, const CommModel* comm,
                  std::span<const double> payloads) {
  Schedule schedule(tasks.size());
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  const auto wcount = static_cast<std::size_t>(platform.workers());
  WorkerTimeline* const timeline = arena.alloc<WorkerTimeline>(wcount);
  for (std::size_t w = 0; w < wcount; ++w) {
    new (&timeline[w]) WorkerTimeline(arena);
  }

  for (TaskId id : order) {
    const obs::PhaseScope gap_scope(options.metrics,
                                    obs::Phase::kHeftGapSearch);
    const Task& t = tasks[static_cast<std::size_t>(id)];
    double ready = 0.0;
    if (graph != nullptr && comm == nullptr) {
      for (TaskId pred : graph->predecessors(id)) {
        ready = std::max(ready, schedule.placement(pred).end);
      }
    }
    // The duration only depends on the worker's type; hoist both values out
    // of the worker scan instead of re-deriving them per worker.
    const double dt_by_type[2] = {t.cpu_time, t.gpu_time};
    WorkerId best_w = 0;
    double best_start = 0.0;
    double best_finish = std::numeric_limits<double>::infinity();
    for (WorkerId w = 0; w < platform.workers(); ++w) {
      const double dt =
          dt_by_type[static_cast<std::size_t>(platform.type_of(w))];
      if (comm != nullptr) {
        // Each predecessor's output has to reach `w` first.
        ready = 0.0;
        for (TaskId pred : graph->predecessors(id)) {
          const Placement& pp = schedule.placement(pred);
          ready = std::max(
              ready, pp.end + comm->transfer_time(
                                  platform, pp.worker, w,
                                  payloads[static_cast<std::size_t>(pred)]));
        }
      }
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

}  // namespace detail

Schedule heft(const TaskGraph& graph, const Platform& platform,
              const HeftOptions& options) {
  assert(graph.finalized());
  assert(options.rank != RankScheme::kFifo && "HEFT requires a rank scheme");

  const obs::PhaseScope engine_scope(options.metrics, obs::Phase::kEngine);
  const std::vector<double> rank = [&] {
    const obs::PhaseScope rank_scope(options.metrics, obs::Phase::kHeftRank);
    return bottom_levels(graph, options.rank);
  }();
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  const std::span<const TaskId> order = [&] {
    const obs::PhaseScope rank_scope(options.metrics, obs::Phase::kHeftRank);
    return detail::rank_order(graph, rank, arena);
  }();
  Schedule schedule =
      detail::heft_run(graph.tasks(), &graph, platform, options, order);
  obs::replay_schedule_to(schedule, platform, options.sink);
  return schedule;
}

Schedule heft_independent(std::span<const Task> tasks, const Platform& platform,
                          const HeftOptions& options) {
  assert(options.rank != RankScheme::kFifo && "HEFT requires a rank scheme");
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  const obs::PhaseScope engine_scope(options.metrics, obs::Phase::kEngine);
  // Rank weights are computed once into the key array instead of twice per
  // comparison; ascending (descending_key(weight), id) is the reference
  // order (weight desc, task id asc).
  const std::span<util::KeyId> order{arena.alloc<util::KeyId>(tasks.size()),
                                     tasks.size()};
  {
    const obs::PhaseScope rank_scope(options.metrics, obs::Phase::kHeftRank);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      order[i] =
          util::KeyId{soa::descending_key(rank_weight(tasks[i], options.rank)),
                      static_cast<std::uint32_t>(i)};
    }
    util::sort_key_id(order, arena);
  }
  Schedule schedule =
      heft_independent_run(tasks, platform, order, options, arena);
  obs::replay_schedule_to(schedule, platform, options.sink);
  return schedule;
}

}  // namespace hp
