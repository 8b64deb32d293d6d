// Differential tests of the area bound and the DAG lower bound against the
// versions they replaced, transcribed below: area_bound sorted the task ids
// with a comparison sort on p/q and scanned them; dag_lower_bound copied
// the tasks above each threshold into a subset and ran that area bound on
// it. The engine now radix-sorts one scan order and walks it. Every field
// must match bitwise, including under rho ties, zero GPU or CPU times and
// one-sided platforms.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "bounds/area_bound.hpp"
#include "bounds/dag_lower_bound.hpp"
#include "dag/random_graphs.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "model/generators.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

/// area_bound with a comparison sort and heap vectors.
AreaBoundResult comparison_sort_area_bound(std::span<const Task> tasks,
                                           const Platform& platform) {
  AreaBoundResult res;
  const std::size_t count = tasks.size();
  if (count == 0) return res;
  const double m = platform.cpus();
  const double n = platform.gpus();
  res.order.resize(count);
  std::iota(res.order.begin(), res.order.end(), TaskId{0});
  if (platform.gpus() == 0) {
    for (const Task& t : tasks) res.cpu_work += t.cpu_time;
    res.bound = res.cpu_work / m;
    return res;
  }
  if (platform.cpus() == 0) {
    for (const Task& t : tasks) res.gpu_work += t.gpu_time;
    res.bound = res.gpu_work / n;
    res.split_index = count;
    return res;
  }
  std::sort(res.order.begin(), res.order.end(), [&](TaskId a, TaskId b) {
    const double ra = tasks[static_cast<std::size_t>(a)].accel();
    const double rb = tasks[static_cast<std::size_t>(b)].accel();
    if (ra != rb) return ra > rb;
    return a < b;
  });
  std::vector<double> suffix_cpu(count + 1, 0.0);
  for (std::size_t k = count; k-- > 0;) {
    suffix_cpu[k] = suffix_cpu[k + 1] +
                    tasks[static_cast<std::size_t>(res.order[k])].cpu_time;
  }
  double gpu_acc = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    const Task& t = tasks[static_cast<std::size_t>(res.order[k])];
    const double g = (((suffix_cpu[k + 1] + t.cpu_time) / m) - gpu_acc / n) /
                     (t.gpu_time / n + t.cpu_time / m);
    if (g <= 1.0) {
      const double clamped = std::clamp(g, 0.0, 1.0);
      res.split_index = k;
      res.gpu_fraction_of_split = clamped;
      res.threshold_accel = t.accel();
      res.gpu_work = gpu_acc + clamped * t.gpu_time;
      res.cpu_work = suffix_cpu[k + 1] + (1.0 - clamped) * t.cpu_time;
      res.bound = std::max(res.gpu_work / n, res.cpu_work / m);
      return res;
    }
    gpu_acc += t.gpu_time;
  }
  res.split_index = count;
  res.threshold_accel =
      tasks[static_cast<std::size_t>(res.order.back())].accel();
  res.gpu_work = gpu_acc;
  res.bound = gpu_acc / n;
  return res;
}

/// dag_lower_bound's segmented pass with a subset copy per threshold.
double subset_copy_segmented(const TaskGraph& graph, const Platform& platform,
                             const std::vector<double>& keys,
                             int thresholds) {
  std::vector<double> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  const auto first_pos =
      std::upper_bound(sorted.begin(), sorted.end(), 0.0) - sorted.begin();
  const std::size_t positives =
      sorted.size() - static_cast<std::size_t>(first_pos);
  if (positives == 0) return 0.0;
  std::vector<double> candidates;
  for (int c = 0; c < thresholds; ++c) {
    candidates.push_back(sorted[static_cast<std::size_t>(first_pos) +
                                positives * static_cast<std::size_t>(c) /
                                    static_cast<std::size_t>(thresholds)]);
  }
  candidates.push_back(sorted.back());
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  double best = 0.0;
  for (const double threshold : candidates) {
    std::vector<Task> subset;
    for (std::size_t i = 0; i < graph.size(); ++i) {
      if (keys[i] >= threshold) subset.push_back(graph.task(static_cast<TaskId>(i)));
    }
    if (subset.empty()) continue;
    best = std::max(best, threshold + comparison_sort_area_bound(subset, platform).bound);
  }
  return best;
}

DagLowerBound subset_copy_dag_lower_bound(const TaskGraph& graph,
                                          const Platform& platform,
                                          int thresholds) {
  DagLowerBound lb;
  lb.area = comparison_sort_area_bound(graph.tasks(), platform).bound;
  std::vector<double> tails = bottom_levels(graph, RankScheme::kMin);
  for (const double level : tails) {
    lb.critical_path = std::max(lb.critical_path, level);
  }
  const bool has_cpu = platform.cpus() > 0;
  const bool has_gpu = platform.gpus() > 0;
  for (const Task& t : graph.tasks()) {
    const double floor = has_cpu && has_gpu ? t.min_time()
                         : has_cpu          ? t.cpu_time
                                            : t.gpu_time;
    lb.max_min_time = std::max(lb.max_min_time, floor);
  }
  if (thresholds > 0 && !graph.empty()) {
    const std::vector<double> tops = top_levels(graph, RankScheme::kMin);
    lb.segmented = subset_copy_segmented(graph, platform, tops, thresholds);
    for (std::size_t i = 0; i < tails.size(); ++i) {
      tails[i] -= rank_weight(graph.task(static_cast<TaskId>(i)), RankScheme::kMin);
    }
    lb.segmented = std::max(
        lb.segmented, subset_copy_segmented(graph, platform, tails, thresholds));
  }
  return lb;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

void expect_same_area(std::span<const Task> tasks, const Platform& platform) {
  const AreaBoundResult want = comparison_sort_area_bound(tasks, platform);
  const AreaBoundResult got = area_bound(tasks, platform);
  EXPECT_EQ(bits(got.bound), bits(want.bound));
  EXPECT_EQ(got.split_index, want.split_index);
  EXPECT_EQ(bits(got.gpu_fraction_of_split), bits(want.gpu_fraction_of_split));
  EXPECT_EQ(bits(got.threshold_accel), bits(want.threshold_accel));
  EXPECT_EQ(bits(got.cpu_work), bits(want.cpu_work));
  EXPECT_EQ(bits(got.gpu_work), bits(want.gpu_work));
  EXPECT_EQ(got.order, want.order);
  EXPECT_EQ(bits(area_bound_value(tasks, platform)), bits(want.bound));
}

const Platform kPlatforms[] = {Platform(20, 4), Platform(4, 2), Platform(1, 1),
                               Platform(3, 0), Platform(0, 3)};

TEST(AreaBoundDifferential, MatchesComparisonSortOnRandomTasks) {
  util::Rng rng(51);
  for (int rep = 0; rep < 300; ++rep) {
    const std::size_t n = 1 + static_cast<std::size_t>(
                                  rng.bounded(rep % 10 == 0 ? 3000 : 150));
    const bool coarse = rep % 3 == 0;  // few distinct times: many rho ties
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      double p = coarse ? static_cast<double>(1 + rng.bounded(4))
                        : rng.uniform(0.1, 10.0);
      double q = coarse ? static_cast<double>(1 + rng.bounded(4))
                        : p / rng.uniform(0.2, 30.0);
      const auto zero = rng.bounded(16);
      if (zero == 0) q = 0.0;  // rho = +inf
      if (zero == 1) p = 0.0;  // rho = 0
      tasks.push_back(Task{p, q});
    }
    for (const Platform& platform : kPlatforms) {
      SCOPED_TRACE("rep " + std::to_string(rep) + " platform " +
                   std::to_string(platform.cpus()) + "+" +
                   std::to_string(platform.gpus()));
      expect_same_area(tasks, platform);
    }
    if (HasFailure()) return;
  }
}

TEST(AreaBoundDifferential, MatchesComparisonSortOnEqualRhoAndUniformSets) {
  // Every task with the same rho: the order is the id order. And the large
  // uniform set of hpbench's batch-indep shape.
  util::Rng rng(53);
  std::vector<Task> equal_rho;
  for (int i = 0; i < 500; ++i) {
    const double p = rng.uniform(1.0, 5.0);
    equal_rho.push_back(Task{p, p / 4.0});
  }
  const Instance uniform = uniform_instance({.num_tasks = 100000}, rng);
  for (const Platform& platform : kPlatforms) {
    expect_same_area(equal_rho, platform);
    expect_same_area(uniform.tasks(), platform);
    // opt_lower_bound: the area bound folded with every per-task floor.
    double want = comparison_sort_area_bound(uniform.tasks(), platform).bound;
    for (const Task& t : uniform.tasks()) {
      want = std::max(want, platform.gpus() == 0   ? t.cpu_time
                            : platform.cpus() == 0 ? t.gpu_time
                                                   : t.min_time());
    }
    EXPECT_EQ(bits(opt_lower_bound(uniform.tasks(), platform)), bits(want));
  }
}

TEST(AreaSplitInOrder, MatchesAreaBoundAndFillsSuffixSums) {
  util::Rng rng(57);
  const Instance inst = uniform_instance({.num_tasks = 2000}, rng);
  const Platform platform(20, 4);
  const AreaBoundResult want = comparison_sort_area_bound(inst.tasks(), platform);
  std::vector<double> p, q;
  for (const TaskId id : want.order) {
    p.push_back(inst[id].cpu_time);
    q.push_back(inst[id].gpu_time);
  }
  std::vector<double> suffix(p.size() + 1, -1.0);
  const AreaSplit got = area_split_in_order(p, q, platform, suffix);
  EXPECT_EQ(bits(got.bound), bits(want.bound));
  EXPECT_EQ(got.split_index, want.split_index);
  EXPECT_EQ(bits(got.cpu_work), bits(want.cpu_work));
  EXPECT_EQ(bits(got.gpu_work), bits(want.gpu_work));
  double sum = 0.0;
  for (std::size_t k = p.size() + 1; k-- > 0;) {
    EXPECT_EQ(bits(suffix[k]), bits(sum)) << "at " << k;
    if (k > 0) sum += p[k - 1];
  }
}

void expect_same_dag_bound(const TaskGraph& g, const std::string& label) {
  for (const Platform& platform : kPlatforms) {
    for (const int thresholds : {0, 3, 24}) {
      SCOPED_TRACE(label + " platform " + std::to_string(platform.cpus()) +
                   "+" + std::to_string(platform.gpus()) + " thresholds " +
                   std::to_string(thresholds));
      const DagLowerBound want =
          subset_copy_dag_lower_bound(g, platform, thresholds);
      const DagLowerBound got = dag_lower_bound(
          g, platform, DagLowerBoundOptions{.segment_thresholds = thresholds});
      EXPECT_EQ(bits(got.area), bits(want.area));
      EXPECT_EQ(bits(got.critical_path), bits(want.critical_path));
      EXPECT_EQ(bits(got.max_min_time), bits(want.max_min_time));
      EXPECT_EQ(bits(got.segmented), bits(want.segmented));
    }
  }
}

TEST(DagLowerBoundDifferential, MatchesSubsetCopyOnTiledDags) {
  for (int kind = 0; kind < 3; ++kind) {
    for (const int tiles : {4, 10, 16}) {
      TaskGraph g = kind == 0   ? cholesky_dag(tiles)
                    : kind == 1 ? qr_dag(tiles)
                                : lu_dag(tiles);
      util::Rng rng(0xb0u + static_cast<std::uint64_t>(10 * kind + tiles));
      for (std::size_t i = 0; i < g.size(); ++i) {
        Task& t = g.task(static_cast<TaskId>(i));
        t.cpu_time *= rng.lognormal(0.0, 0.3);
        t.gpu_time *= rng.lognormal(0.0, 0.3);
      }
      expect_same_dag_bound(g, "kind " + std::to_string(kind) + " tiles " +
                                   std::to_string(tiles));
    }
  }
}

TEST(DagLowerBoundDifferential, MatchesSubsetCopyOnRandomDags) {
  util::Rng rng(59);
  for (int rep = 0; rep < 20; ++rep) {
    LayeredDagParams layered;
    layered.layers = 2 + static_cast<int>(rng.bounded(8));
    layered.width = 1 + static_cast<int>(rng.bounded(30));
    const TaskGraph a = random_layered_dag(layered, rng);
    expect_same_dag_bound(a, "layered " + std::to_string(rep));
    SparseDagParams sparse;
    sparse.num_tasks = 1 + rng.bounded(400);
    const TaskGraph b = random_sparse_dag(sparse, rng);
    expect_same_dag_bound(b, "sparse " + std::to_string(rep));
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace hp
