#include "bounds/dag_lower_bound.hpp"

#include <algorithm>
#include <vector>

#include "dag/ranking.hpp"
#include "util/arena.hpp"

namespace hp {

namespace {

/// The graph's tasks in the area bound's scan order (rho descending, ties
/// by id), with their times gathered in that order, plus the scratch every
/// threshold reuses. Built once per dag_lower_bound call: the tasks a
/// threshold keeps are a subsequence of the scan order, so each threshold
/// walks it, skips the tasks below, and solves the LP on what is left
/// without sorting. Storage comes from the run's arena and is reclaimed by
/// the caller's ArenaScope.
struct SegmentedScratch {
  /// The scan order is only built on a platform with both resource
  /// classes; a one-sided bound sums in id order and needs none.
  SegmentedScratch(const TaskGraph& graph, const Platform& platform,
                   util::Arena& arena)
      : p(arena),
        q(arena),
        sub_p(arena),
        sub_q(arena),
        suffix_cpu(arena),
        sorted(arena),
        candidates(arena) {
    if (platform.cpus() == 0 || platform.gpus() == 0) return;
    order = rho_order(graph.tasks(), arena);
    p.reserve(graph.size());
    q.reserve(graph.size());
    sub_p.reserve(graph.size());
    sub_q.reserve(graph.size());
    suffix_cpu.reserve(graph.size() + 1);
    for (const TaskId id : order) {
      const Task& t = graph.task(id);
      p.push_back(t.cpu_time);
      q.push_back(t.gpu_time);
    }
  }

  /// AreaBound of the whole graph, bitwise area_bound_value(graph.tasks()).
  double whole_area(const TaskGraph& graph, const Platform& platform) {
    if (order.empty()) {  // one-sided platform (or no tasks): id order
      return area_bound_value(graph.tasks(), platform);
    }
    suffix_cpu.resize(p.size() + 1);
    return area_split_in_order(p.span(), q.span(), platform,
                               suffix_cpu.span())
        .bound;
  }

  std::span<const TaskId> order;
  util::ArenaVector<double> p;
  util::ArenaVector<double> q;
  util::ArenaVector<double> sub_p;
  util::ArenaVector<double> sub_q;
  util::ArenaVector<double> suffix_cpu;
  util::ArenaVector<double> sorted;
  util::ArenaVector<double> candidates;
};

/// AreaBound of the tasks whose key is >= threshold, bitwise what
/// area_bound_value returns for them listed in id order: the LP over the
/// scan order restricted to them, or their id-order sum on a one-sided
/// platform. Returns false when no task qualifies.
bool subset_area(const TaskGraph& graph, const Platform& platform,
                 const std::vector<double>& keys, double threshold,
                 SegmentedScratch& scratch, double* bound) {
  if (scratch.order.empty()) {
    const bool on_cpu = platform.gpus() == 0;
    double work = 0.0;
    bool any = false;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (!(keys[i] >= threshold)) continue;
      const Task& t = graph.task(static_cast<TaskId>(i));
      work += on_cpu ? t.cpu_time : t.gpu_time;
      any = true;
    }
    *bound = work / (on_cpu ? platform.cpus() : platform.gpus());
    return any;
  }
  scratch.sub_p.clear();
  scratch.sub_q.clear();
  for (std::size_t k = 0; k < scratch.order.size(); ++k) {
    if (!(keys[static_cast<std::size_t>(scratch.order[k])] >= threshold)) {
      continue;
    }
    scratch.sub_p.push_back(scratch.p[k]);
    scratch.sub_q.push_back(scratch.q[k]);
  }
  if (scratch.sub_p.empty()) return false;
  scratch.suffix_cpu.resize(scratch.sub_p.size() + 1);
  *bound = area_split_in_order(scratch.sub_p.span(), scratch.sub_q.span(),
                               platform, scratch.suffix_cpu.span())
               .bound;
  return true;
}

/// max over candidate thresholds T of (T + AreaBound({tasks with key >= T})).
/// `keys` must be a per-task value such that every task with key >= T runs
/// entirely within a window of length (Cmax - T).
double segmented_direction(const TaskGraph& graph, const Platform& platform,
                           const std::vector<double>& keys, int thresholds,
                           SegmentedScratch& scratch) {
  util::ArenaVector<double>& sorted = scratch.sorted;
  sorted.clear();
  sorted.reserve(keys.size());
  for (const double key : keys) sorted.push_back(key);
  std::sort(sorted.begin(), sorted.end());
  // Candidate thresholds: quantiles of the positive keys.
  util::ArenaVector<double>& candidates = scratch.candidates;
  candidates.clear();
  const auto first_pos =
      std::upper_bound(sorted.begin(), sorted.end(), 0.0) - sorted.begin();
  const std::size_t positives = sorted.size() - static_cast<std::size_t>(first_pos);
  if (positives == 0) return 0.0;
  candidates.reserve(static_cast<std::size_t>(thresholds) + 1);
  for (int c = 0; c < thresholds; ++c) {
    const std::size_t idx =
        static_cast<std::size_t>(first_pos) +
        positives * static_cast<std::size_t>(c) / static_cast<std::size_t>(thresholds);
    candidates.push_back(sorted[idx]);
  }
  candidates.push_back(*(sorted.end() - 1));
  std::sort(candidates.begin(), candidates.end());
  candidates.resize(static_cast<std::size_t>(
      std::unique(candidates.begin(), candidates.end()) - candidates.begin()));

  double best = 0.0;
  for (double threshold : candidates.span()) {
    double area = 0.0;
    if (!subset_area(graph, platform, keys, threshold, scratch, &area)) {
      continue;
    }
    best = std::max(best, threshold + area);
  }
  return best;
}

}  // namespace

DagLowerBound dag_lower_bound(const TaskGraph& graph, const Platform& platform,
                              const DagLowerBoundOptions& options) {
  DagLowerBound lb;
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  SegmentedScratch scratch(graph, platform, arena);
  lb.area = scratch.whole_area(graph, platform);
  // One min-weight bottom-level pass serves both the critical path (its
  // maximum) and the backward segmented keys below.
  std::vector<double> tails = bottom_levels(graph, RankScheme::kMin);
  for (const double level : tails) {
    lb.critical_path = std::max(lb.critical_path, level);
  }
  const bool has_cpu = platform.cpus() > 0;
  const bool has_gpu = platform.gpus() > 0;
  for (const Task& t : graph.tasks()) {
    // One-sided platforms: the absent resource's time is not a valid floor.
    const double floor = has_cpu && has_gpu ? t.min_time()
                         : has_cpu          ? t.cpu_time
                                            : t.gpu_time;
    lb.max_min_time = std::max(lb.max_min_time, floor);
  }

  if (options.segment_thresholds > 0 && !graph.empty()) {
    // Forward: tasks whose min-weight top level is >= T cannot start
    // before T, so they fit in (Cmax - T) and Cmax >= T + AreaBound(them).
    const std::vector<double> tops = top_levels(graph, RankScheme::kMin);
    lb.segmented = segmented_direction(graph, platform, tops,
                                       options.segment_thresholds, scratch);
    // Backward: a task followed by a min-weight chain of length B =
    // bottom_level - own weight must finish B before Cmax.
    for (std::size_t i = 0; i < tails.size(); ++i) {
      tails[i] -= rank_weight(graph.task(static_cast<TaskId>(i)), RankScheme::kMin);
    }
    lb.segmented = std::max(
        lb.segmented, segmented_direction(graph, platform, tails,
                                          options.segment_thresholds, scratch));
  }
  return lb;
}

}  // namespace hp
