#include "baselines/dualhp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <vector>

#include "bounds/area_bound.hpp"
#include "bounds/exact_opt.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "model/generators.hpp"
#include "naive_dual_try.hpp"
#include "sched/validate.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

TEST(DualTry, ForcedAssignments) {
  // lambda = 3: task 0 (p=5 > 3) forced to GPU; task 1 (q=4 > 3) forced to
  // CPU; task 2 flexible.
  const std::vector<Task> tasks{Task{5.0, 1.0}, Task{2.0, 4.0},
                                Task{1.0, 1.0}};
  std::vector<TaskId> candidates{0, 2, 1};  // rho desc: 5, 1, 0.5
  const std::vector<double> cpu_loads{0.0};
  const std::vector<double> gpu_loads{0.0};
  const auto res = detail::dual_try(tasks, candidates, 3.0, cpu_loads, gpu_loads);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.side[0], Resource::kGpu);  // candidate 0 = task 0
  EXPECT_EQ(res.side[2], Resource::kCpu);  // candidate 2 = task 1
}

TEST(DualTry, InfeasibleWhenTaskExceedsLambdaOnBoth) {
  const std::vector<Task> tasks{Task{5.0, 5.0}};
  const std::vector<TaskId> candidates{0};
  const std::vector<double> one_load{0.0};
  EXPECT_FALSE(
      detail::dual_try(tasks, candidates, 4.0, one_load, one_load).feasible);
  EXPECT_TRUE(
      detail::dual_try(tasks, candidates, 5.0, one_load, one_load).feasible);
}

TEST(DualTry, RespectsTwoLambdaCap) {
  // Two tasks of CPU time 3 on one CPU with lambda = 2: cap is 4, placing
  // both (load 6) must fail; GPU-hostile so they cannot spill there.
  const std::vector<Task> tasks{Task{3.0, 50.0}, Task{3.0, 50.0}};
  const std::vector<TaskId> candidates{0, 1};
  const std::vector<double> cpu_loads{0.0};
  const std::vector<double> gpu_loads{0.0};
  EXPECT_FALSE(
      detail::dual_try(tasks, candidates, 2.0, cpu_loads, gpu_loads).feasible);
}

TEST(DualTry, AccountsForInitialLoads) {
  // GPU already loaded to 3; with lambda = 2 (cap 4) a q=2 task fits only
  // if the residual allows; 3+2=5 > 4 -> must go to the CPU instead.
  const std::vector<Task> tasks{Task{2.0, 2.0}};
  const std::vector<TaskId> candidates{0};
  const std::vector<double> cpu_loads{0.0};
  const std::vector<double> gpu_loads{3.0};
  const auto res = detail::dual_try(tasks, candidates, 2.0, cpu_loads, gpu_loads);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.side[0], Resource::kCpu);
}

TEST(DualTry, LambdaEqualToTaskTimeDoesNotForce) {
  // A task is forced only when strictly longer than lambda: at lambda = p
  // it stays flexible and may use the CPUs of a GPU-less platform.
  const std::vector<Task> tasks{Task{3.0, 1.0}};
  const std::vector<TaskId> candidates{0};
  const std::vector<double> cpu_loads{0.0};
  const std::vector<double> no_gpus;
  const auto at = detail::dual_try(tasks, candidates, 3.0, cpu_loads, no_gpus);
  ASSERT_TRUE(at.feasible);
  EXPECT_EQ(at.side[0], Resource::kCpu);
  EXPECT_FALSE(detail::dual_try(tasks, candidates, std::nextafter(3.0, 0.0),
                                cpu_loads, no_gpus)
                   .feasible);
}

TEST(DualTry, OverloadedIdleWorkerDoesNotFailTheGuess) {
  // CPU 0 starts far above cap = 4 but receives nothing: the guess stays
  // feasible, and the load bound counts that worker as at most cap.
  const std::vector<Task> tasks{Task{1.0, 50.0}, Task{1.0, 50.0}};
  const std::vector<TaskId> candidates{0, 1};
  const std::vector<double> cpu_loads{100.0, 0.0};
  const std::vector<double> gpu_loads{100.0};
  const auto res =
      detail::dual_try(tasks, candidates, 2.0, cpu_loads, gpu_loads);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(res.side[0], Resource::kCpu);
  EXPECT_EQ(res.side[1], Resource::kCpu);
}

TEST(DualTry, ForcedToMissingResourceIsInfeasible) {
  const std::vector<TaskId> candidates{0};
  const std::vector<double> one_load{0.0};
  const std::vector<double> none;
  // p = 5 > lambda forces the task to the GPUs, and there are none.
  const std::vector<Task> gpu_bound{Task{5.0, 1.0}};
  EXPECT_FALSE(
      detail::dual_try(gpu_bound, candidates, 3.0, one_load, none).feasible);
  EXPECT_TRUE(
      detail::dual_try(gpu_bound, candidates, 3.0, none, one_load).feasible);
  // q = 5 > lambda forces it to the CPUs, and there are none.
  const std::vector<Task> cpu_bound{Task{1.0, 5.0}};
  EXPECT_FALSE(
      detail::dual_try(cpu_bound, candidates, 3.0, none, one_load).feasible);
  EXPECT_TRUE(
      detail::dual_try(cpu_bound, candidates, 3.0, one_load, none).feasible);
}

TEST(DualTry, EqualForcedDurationsFillGpusExactlyToCap) {
  // Four tasks forced to two GPUs (p > lambda = 2), all of GPU time 2.
  // Taken in index order on the duration tie, each goes to the
  // lowest-index least-loaded GPU, so both end at 4 = cap exactly; the
  // flexible task then spills to the CPU, and a fifth forced task cannot
  // fit.
  std::vector<Task> tasks{Task{10.0, 2.0}, Task{11.0, 2.0}, Task{12.0, 2.0},
                          Task{13.0, 2.0}, Task{0.5, 0.5}};
  const std::vector<double> cpu_loads{0.0};
  const std::vector<double> gpu_loads{0.0, 0.0};
  const std::vector<TaskId> four_and_flexible{3, 2, 1, 0, 4};
  const auto res = detail::dual_try(tasks, four_and_flexible, 2.0, cpu_loads,
                                    gpu_loads);
  ASSERT_TRUE(res.feasible);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(res.side[i], Resource::kGpu);
  EXPECT_EQ(res.side[4], Resource::kCpu);  // both GPUs are at cap
  tasks.push_back(Task{14.0, 2.0});
  const std::vector<TaskId> five{5, 3, 2, 1, 0};
  EXPECT_FALSE(
      detail::dual_try(tasks, five, 2.0, cpu_loads, gpu_loads).feasible);
}

TEST(DualTry, LoadSumBoundIsTight) {
  // Eight flexible tasks of 0.5 on one CPU and one GPU: total minimum work
  // 4 fits (m+k) * 2 * lambda exactly at lambda = 1. Just below, the guess
  // is rejected; just above, the greedy fills the GPU first (rho ties keep
  // candidate order) and spills the rest to the CPU.
  const std::vector<Task> tasks(8, Task{0.5, 0.5});
  std::vector<TaskId> candidates(8);
  std::iota(candidates.begin(), candidates.end(), 0);
  const std::vector<double> cpu_loads{0.0};
  const std::vector<double> gpu_loads{0.0};
  EXPECT_FALSE(detail::dual_try(tasks, candidates, 1.0 - 1e-6, cpu_loads,
                                gpu_loads)
                   .feasible);
  for (const double lambda : {1.0, 1.0 + 1e-6}) {
    SCOPED_TRACE(lambda);
    const auto res =
        detail::dual_try(tasks, candidates, lambda, cpu_loads, gpu_loads);
    ASSERT_TRUE(res.feasible);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(res.side[i], i < 4 ? Resource::kGpu : Resource::kCpu);
    }
  }
}

TEST(DualTry, MatchesNaiveGreedyOnRandomGuesses) {
  // Random ready sets with ties in both durations, random starting loads
  // (some above cap), and guesses spread around the feasibility threshold,
  // including ones right at the load-sum bound.
  util::Rng rng(23);
  int feasible = 0;
  int infeasible = 0;
  for (int rep = 0; rep < 400; ++rep) {
    const int cpus = static_cast<int>(rng.uniform01() * 4);
    const int gpus = cpus == 0 ? 1 + static_cast<int>(rng.uniform01() * 3)
                               : static_cast<int>(rng.uniform01() * 4);
    const auto n = 1 + static_cast<std::size_t>(rng.uniform01() * 24);
    std::vector<Task> tasks;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = 0.5 * (1 + static_cast<int>(rng.uniform01() * 12));
      const double q = 0.5 * (1 + static_cast<int>(rng.uniform01() * 12));
      tasks.push_back(Task{p, q});
    }
    std::vector<TaskId> candidates(n);
    std::iota(candidates.begin(), candidates.end(), 0);
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](TaskId a, TaskId b) {
                       return tasks[static_cast<std::size_t>(a)].accel() >
                              tasks[static_cast<std::size_t>(b)].accel();
                     });
    std::vector<double> cpu(static_cast<std::size_t>(cpus));
    std::vector<double> gpu(static_cast<std::size_t>(gpus));
    const auto start_load = [&] {
      return rng.uniform01() < 0.3 ? 10.0 * rng.uniform01() : 0.0;
    };
    for (double& load : cpu) load = start_load();
    for (double& load : gpu) load = start_load();
    double total = 0.0;
    for (const Task& t : tasks) total += t.min_time();
    const double bound_lambda = total / (2.0 * (cpus + gpus));
    for (const double lambda :
         {bound_lambda, std::nextafter(bound_lambda, 0.0),
          0.25 * (1 + static_cast<int>(rng.uniform01() * 40)),
          3.0 + 12.0 * rng.uniform01()}) {
      SCOPED_TRACE("rep " + std::to_string(rep) + " lambda " +
                   std::to_string(lambda));
      const auto got = detail::dual_try(tasks, candidates, lambda, cpu, gpu);
      const auto want = naive_dual_try(tasks, candidates, lambda, cpu, gpu);
      ASSERT_EQ(got.feasible, want.feasible);
      if (got.feasible) {
        EXPECT_EQ(got.side, want.side);
        ++feasible;
      } else {
        ++infeasible;
      }
    }
  }
  // Both verdicts must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(feasible, 300);
  EXPECT_GT(infeasible, 300);
}

TEST(DualHp, ValidScheduleOnRandomInstances) {
  util::Rng rng(21);
  for (int rep = 0; rep < 10; ++rep) {
    const Instance inst = uniform_instance({.num_tasks = 30}, rng);
    const Platform platform(3, 2);
    const Schedule s = dualhp(inst.tasks(), platform);
    const auto check = check_schedule(s, inst.tasks(), platform);
    EXPECT_TRUE(check.ok) << check.message;
  }
}

TEST(DualHp, WithinTwiceOptimalOnSmallInstances) {
  // The dual-approximation guarantee: makespan <= 2 * OPT (§6: "returns a
  // schedule of length 2*lambda" with lambda <= OPT at the search's end).
  util::Rng rng(22);
  for (int rep = 0; rep < 12; ++rep) {
    const Instance inst = uniform_instance({.num_tasks = 9}, rng);
    const Platform platform(2, 1);
    const Schedule s = dualhp(inst.tasks(), platform);
    const double opt = exact_optimal_makespan(inst.tasks(), platform);
    EXPECT_LE(s.makespan(), 2.0 * opt * (1.0 + 1e-6) + 1e-9);
  }
}

TEST(DualHp, EmptyInstance) {
  const std::vector<Task> tasks;
  EXPECT_DOUBLE_EQ(dualhp(tasks, Platform(1, 1)).makespan(), 0.0);
}

TEST(DualHp, SingleTaskGoesToFasterResourceWithinBound) {
  const std::vector<Task> tasks{Task{4.0, 1.0}};
  const Schedule s = dualhp(tasks, Platform(1, 1));
  EXPECT_LE(s.makespan(), 2.0 + 1e-9);  // 2 * OPT = 2
}

TEST(DualHp, PriorityOrderingWithinWorker) {
  // Force both tasks onto the single CPU; the higher-priority one runs
  // first unless fifo ordering is requested.
  const std::vector<Task> tasks{
      Task{1.0, 50.0, /*priority=*/1.0},
      Task{1.0, 50.0, /*priority=*/9.0},
  };
  const Platform platform(1, 1);
  const Schedule by_prio = dualhp(tasks, platform);
  EXPECT_LT(by_prio.placement(1).start, by_prio.placement(0).start);
  const Schedule by_fifo = dualhp(tasks, platform, {.fifo_order = true});
  EXPECT_LT(by_fifo.placement(0).start, by_fifo.placement(1).start);
}

TEST(DualHpDag, ValidOnCholesky) {
  TaskGraph g = cholesky_dag(6);
  assign_priorities(g, RankScheme::kAvg);
  const Platform platform(4, 2);
  const Schedule s = dualhp_dag(g, platform);
  const auto check = check_schedule(s, g, platform);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(DualHpDag, ChainCompletes) {
  TaskGraph g("chain");
  const TaskId a = g.add_task(Task{2.0, 1.0});
  const TaskId b = g.add_task(Task{2.0, 1.0});
  const TaskId c = g.add_task(Task{2.0, 1.0});
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.finalize();
  const Platform platform(1, 1);
  const Schedule s = dualhp_dag(g, platform);
  const auto check = check_schedule(s, g, platform);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_GE(s.makespan(), 3.0 - 1e-9);  // critical path of min times
}

TEST(DualHpDag, FifoAndPriorityVariantsBothValid) {
  TaskGraph g = cholesky_dag(5);
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(2, 2);
  const Schedule prio = dualhp_dag(g, platform);
  const Schedule fifo = dualhp_dag(g, platform, {.fifo_order = true});
  EXPECT_TRUE(check_schedule(prio, g, platform).ok);
  EXPECT_TRUE(check_schedule(fifo, g, platform).ok);
}

TEST(DualHpDag, DeterministicAcrossRuns) {
  TaskGraph g = cholesky_dag(5);
  assign_priorities(g, RankScheme::kAvg);
  const Platform platform(3, 1);
  EXPECT_DOUBLE_EQ(dualhp_dag(g, platform).makespan(),
                   dualhp_dag(g, platform).makespan());
}

TEST(DualHpDag, ConservatismLeavesCpusIdleOnGpuFriendlyFront) {
  // §6.2's observation: at the start, DualHP assigns everything to the GPU
  // because using a CPU would lengthen the local makespan. With a single
  // ready chain of GPU-friendly tasks, the CPU never works.
  TaskGraph g("gpu-chain");
  TaskId prev = g.add_task(Task{20.0, 1.0});
  for (int i = 0; i < 4; ++i) {
    const TaskId next = g.add_task(Task{20.0, 1.0});
    g.add_edge(prev, next);
    prev = next;
  }
  g.finalize();
  const Platform platform(2, 1);
  const Schedule s = dualhp_dag(g, platform);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(platform.type_of(s.placement(static_cast<TaskId>(i)).worker),
              Resource::kGpu);
  }
}

}  // namespace
}  // namespace hp
