#include "baselines/heft.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <vector>

#include "comm/comm_model.hpp"
#include "model/task_soa.hpp"
#include "obs/profile.hpp"
#include "obs/replay.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

namespace hp {

namespace {

/// Free-gap index of one worker's timeline.
///
/// The seed implementation (kept as heft_ref) stores busy segments and scans
/// them per query, which is O(n * segments) per worker and dominated the
/// whole pipeline at n = 1e5. This class stores the *complement*: the end of
/// the last busy segment (`last_finish_`, the append fast path — the only
/// case that ever occurs for independent tasks, whose ready time is 0) plus
/// the maximal free gaps, indexed twice:
///
///  - `gaps_`: start -> end, ordered by start, to find the unique gap
///    straddling `ready` and the gap a placement lands in;
///  - `buckets_[b]`: the gaps whose length has binary exponent ~b, each
///    bucket ordered by start, with a bitmask of non-empty buckets. A fit
///    query for duration `dt` only probes buckets that can hold a gap of
///    length >= dt; in every bucket above the boundary bucket the first gap
///    at/after `ready` fits by construction, so the scan is O(1) there and
///    only the boundary bucket pays a (short, length-checked) walk.
///
/// earliest_start() returns exactly the minimum feasible start >= ready, the
/// same double the reference's monotone gap walk returns, so schedules stay
/// bitwise identical (tests/test_heft_regression.cpp).
class WorkerTimeline {
 public:
  /// Earliest start >= ready for a block of length `dt`.
  [[nodiscard]] double earliest_start(double ready, double dt,
                                      bool insertion) const {
    const double append = std::max(ready, last_finish_);
    if (!insertion || gaps_.empty()) return append;
    // The unique gap with start <= ready < end, if any: its candidate is
    // `ready` itself, which no later gap and no append can beat.
    auto at = gaps_.upper_bound(ready);
    if (at != gaps_.begin()) {
      const auto& [gap_start, gap_end] = *std::prev(at);
      if (ready < gap_end && ready + dt <= gap_end) return ready;
    }
    // Gaps starting at/after ready, by length bucket.
    double best = append;
    const std::uint64_t candidates =
        nonempty_ & (~std::uint64_t{0} << bucket_of(dt));
    for (std::uint64_t mask = candidates; mask != 0; mask &= mask - 1) {
      const auto& bucket = buckets_[std::countr_zero(mask)];
      for (auto it = bucket.lower_bound({ready, 0.0}); it != bucket.end();
           ++it) {
        if (it->first >= best) break;  // cannot improve on the current best
        if (it->first + dt <= it->second) {
          best = it->first;
          break;
        }
      }
    }
    return best;
  }

  void insert(double start, double end) {
    if (start >= last_finish_) {
      // Append: the idle stretch between the old horizon and the new block
      // becomes a gap.
      add_gap(last_finish_, start);
      last_finish_ = end;
      return;
    }
    // The block was placed at a feasible start, so it lies inside one
    // existing gap; split it.
    assert(!gaps_.empty());
    auto it = gaps_.upper_bound(start);
    assert(it != gaps_.begin());
    --it;
    const double gap_start = it->first;
    const double gap_end = it->second;
    assert(gap_start <= start && end <= gap_end);
    remove_gap(it);
    add_gap(gap_start, start);
    add_gap(end, gap_end);
  }

 private:
  using Gap = std::pair<double, double>;  // (start, end), ordered by start

  /// Length buckets cover binary exponents [-32, 31] of the gap length,
  /// clamped at both ends; boundary buckets are handled by the per-gap
  /// length check in earliest_start().
  static int bucket_of(double length) noexcept {
    return std::clamp(std::ilogb(length) + 32, 0, 63);
  }

  void add_gap(double start, double end) {
    if (!(end > start)) return;
    gaps_.emplace(start, end);
    const int b = bucket_of(end - start);
    buckets_[static_cast<std::size_t>(b)].emplace(start, end);
    nonempty_ |= std::uint64_t{1} << b;
  }

  void remove_gap(std::map<double, double>::iterator it) {
    const int b = bucket_of(it->second - it->first);
    auto& bucket = buckets_[static_cast<std::size_t>(b)];
    bucket.erase({it->first, it->second});
    if (bucket.empty()) nonempty_ &= ~(std::uint64_t{1} << b);
    gaps_.erase(it);
  }

  double last_finish_ = 0.0;
  std::map<double, double> gaps_;
  std::array<std::set<Gap>, 64> buckets_;
  std::uint64_t nonempty_ = 0;
};

/// Independent-mode inner loop. Every task is ready at 0, so placements only
/// ever append at a worker's horizon and the gap index can never hold a gap:
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
  // would be measurable (the DAG loop above, with its gap-index queries,
  // affords per-task sampling).
  const obs::PhaseScope gap_scope(options.metrics,
                                  obs::Phase::kHeftGapSearch);
  const auto wcount = static_cast<std::size_t>(platform.workers());
  const std::span<double> finish = arena.alloc_zeroed<double>(wcount);
  const auto cpus = static_cast<std::size_t>(platform.cpus());

  for (const util::KeyId& entry : order) {
    const auto id = static_cast<TaskId>(entry.id);
    const Task& t = tasks[entry.id];
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
  std::vector<WorkerTimeline> timeline(
      static_cast<std::size_t>(platform.workers()));

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
