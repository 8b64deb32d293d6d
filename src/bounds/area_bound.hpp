#pragma once
// Area bound of §4.2 — a lower bound on the optimal makespan.
//
// The bound is the optimum of the fractional LP: each task may be split
// between the CPU side (fraction x_i, consuming x_i * p_i CPU time) and the
// GPU side; minimize the larger of (CPU work / m, GPU work / n).
//
// No LP solver is needed: Lemma 1 (both resource classes finish together at
// the optimum) and Lemma 2 (the split is a threshold in the acceleration
// factor, with at most one fractional task) reduce the LP to a linear scan
// over the tasks sorted by decreasing rho. See DESIGN.md §4.
//
// The scan order (rho descending, ties by id) is the one DualHP's
// λ-bisection walks too, so it is built once by the radix key sort
// (rho_order) and shared: area_split_in_order solves the LP on times
// already laid out in that order, which is how dualhp() takes its warm
// start and dag_lower_bound evaluates each of its thresholds without a
// sort. Every entry point sums in the same order — CPU suffix sums from
// the back, the GPU accumulator from the front, one-sided platforms in id
// order — so they agree bitwise on in-model (finite, non-negative) times.

#include <span>
#include <vector>

#include "model/instance.hpp"
#include "model/platform.hpp"
#include "util/arena.hpp"

namespace hp {

/// Solution of the area-bound LP over a scan order (non-increasing
/// acceleration factor, ties by id).
struct AreaSplit {
  double bound = 0.0;  ///< AreaBound(I)

  /// Scan positions [0, split_index) run fully on GPUs, positions after it
  /// fully on CPUs, and position split_index runs a fraction
  /// `gpu_fraction_of_split` on the GPUs (1 - that on the CPUs).
  std::size_t split_index = 0;
  double gpu_fraction_of_split = 0.0;

  /// The threshold k of Lemma 2 (acceleration factor of the split task);
  /// 0 when the instance is empty.
  double threshold_accel = 0.0;

  /// Work per resource class in the LP solution (Lemma 1: cpu_work / m ==
  /// gpu_work / n == bound whenever both sides carry work).
  double cpu_work = 0.0;
  double gpu_work = 0.0;
};

/// The LP solution together with its scan order: `order[i]` is the task at
/// scan position i.
struct AreaBoundResult : AreaSplit {
  std::vector<TaskId> order;
};

/// Full area-bound solution. O(T) after an O(T) radix sort.
[[nodiscard]] AreaBoundResult area_bound(std::span<const Task> tasks,
                                         const Platform& platform);

/// Just the bound value.
[[nodiscard]] double area_bound_value(std::span<const Task> tasks,
                                      const Platform& platform);

/// Best cheap lower bound on C_max^Opt(I):
/// max(AreaBound(I), max_i min(p_i, q_i)). On a one-sided platform the
/// per-task minimum only ranges over the resource that exists (a task
/// cannot run its GPU time on a platform without GPUs).
[[nodiscard]] double opt_lower_bound(std::span<const Task> tasks,
                                     const Platform& platform);

/// Task ids in the scan order: non-increasing acceleration factor, ties by
/// id, radix-sorted as packed (descending_key(rho), id) keys. The span is
/// allocated from `arena` (the sort's own scratch is released before
/// returning).
[[nodiscard]] std::span<TaskId> rho_order(std::span<const Task> tasks,
                                          util::Arena& arena);

/// The LP on a platform with both CPUs and GPUs, over times already in scan
/// order: p[i] and q[i] are the CPU and GPU times of the task at scan
/// position i. `suffix_cpu` is scratch of p.size() + 1 entries; it receives
/// suffix_cpu[k] = p[k] + ... + p[last], summed from the back. Bitwise equal
/// to area_bound() on the same tasks. O(T).
[[nodiscard]] AreaSplit area_split_in_order(std::span<const double> p,
                                            std::span<const double> q,
                                            const Platform& platform,
                                            std::span<double> suffix_cpu);

}  // namespace hp
