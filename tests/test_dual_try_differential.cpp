// Differential test of DualHP's dual-approximation try against the naive
// greedy of naive_dual_try.hpp. The engine's try answers each guess from a
// plan shared by every guess that forces the same candidates: passes run
// once without a cap, and CPU load sums, instead of walking every
// candidate. Verdicts and sides must match bitwise on every input,
// including the boundaries of those shortcuts and of the plans' intervals,
// both for a solve prepared per guess and for one shared across guesses as
// the bisection runs them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/dualhp.hpp"
#include "naive_dual_try.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

/// The `load + q` values of the GPU greedy run over every candidate with
/// no cap: the values the engine's plan records when nothing is forced.
std::vector<double> uncapped_gpu_pushes(std::span<const Task> tasks,
                                        std::span<const TaskId> candidates,
                                        std::vector<double> gpu) {
  std::vector<double> pushes;
  if (gpu.empty()) return pushes;
  for (const TaskId id : candidates) {
    const auto w = static_cast<std::size_t>(
        std::min_element(gpu.begin(), gpu.end()) - gpu.begin());
    gpu[w] += tasks[static_cast<std::size_t>(id)].gpu_time;
    pushes.push_back(gpu[w]);
  }
  return pushes;
}

struct Case {
  std::vector<Task> tasks;
  std::vector<TaskId> candidates;
  std::vector<double> cpu;
  std::vector<double> gpu;
};

/// A random ready set sorted by acceleration factor (rho ties kept in id
/// order), on 0-6 CPUs and 0-6 GPUs with at least one worker, with a share
/// of zero times and of starting loads (some far above any cap).
Case random_case(util::Rng& rng, std::size_t max_tasks) {
  Case c;
  const auto cpus = static_cast<std::size_t>(rng.bounded(7));
  const auto gpus = cpus == 0 ? 1 + static_cast<std::size_t>(rng.bounded(6))
                              : static_cast<std::size_t>(rng.bounded(7));
  const std::size_t n = 1 + static_cast<std::size_t>(rng.bounded(max_tasks));
  const bool coarse = rng.bounded(2) == 0;  // coarse times give many ties
  const auto draw = [&] {
    if (rng.bounded(12) == 0) return 0.0;
    return coarse ? 0.5 * static_cast<double>(1 + rng.bounded(12))
                  : rng.uniform(0.1, 8.0);
  };
  for (std::size_t i = 0; i < n; ++i) {
    double p = draw();
    double q = draw();
    if (p == 0.0 && q == 0.0) p = 1.0;  // keep rho a number
    c.tasks.push_back(Task{p, q});
  }
  c.candidates.resize(n);
  std::iota(c.candidates.begin(), c.candidates.end(), TaskId{0});
  std::stable_sort(c.candidates.begin(), c.candidates.end(),
                   [&](TaskId a, TaskId b) {
                     return c.tasks[static_cast<std::size_t>(a)].accel() >
                            c.tasks[static_cast<std::size_t>(b)].accel();
                   });
  const auto start_load = [&] {
    const auto kind = rng.bounded(4);
    return kind == 0 ? 30.0 * rng.uniform01()
           : kind == 1 ? 2.0 * rng.uniform01()
                       : 0.0;
  };
  c.cpu.resize(cpus);
  c.gpu.resize(gpus);
  for (double& load : c.cpu) load = start_load();
  for (double& load : c.gpu) load = start_load();
  return c;
}

/// Guesses that straddle every shortcut's boundary: the largest task time
/// (below it something is forced, at it nothing is), half of an uncapped
/// GPU push (2*lambda equals a trajectory value exactly), the area of the
/// load-sum tests, and neighbours of each.
std::vector<double> boundary_lambdas(const Case& c, util::Rng& rng) {
  std::vector<double> lambdas;
  double max_time = 0.0;
  double min_work = 0.0;
  for (const Task& t : c.tasks) {
    max_time = std::max({max_time, t.cpu_time, t.gpu_time});
    min_work += t.min_time();
  }
  const double workers = static_cast<double>(c.cpu.size() + c.gpu.size());
  const std::vector<double> pushes =
      uncapped_gpu_pushes(c.tasks, c.candidates, c.gpu);
  std::vector<double> anchors = {max_time, min_work / (2.0 * workers),
                                 min_work / workers};
  for (int k = 0; k < 3 && !pushes.empty(); ++k) {
    anchors.push_back(0.5 * pushes[rng.bounded(pushes.size())]);
  }
  if (!pushes.empty()) anchors.push_back(0.5 * pushes.back());
  for (const double a : anchors) {
    lambdas.push_back(a);
    lambdas.push_back(std::nextafter(a, 0.0));
    lambdas.push_back(std::nextafter(a, 1e300));
  }
  lambdas.push_back(max_time * (0.5 + rng.uniform01()));
  lambdas.push_back(max_time * (1.0 + 4.0 * rng.uniform01()));
  return lambdas;
}

/// Both tries at every guess; returns (feasible, infeasible) counts.
std::pair<int, int> expect_same_tries(const Case& c,
                                      const std::vector<double>& lambdas,
                                      const std::string& label) {
  // One solve across all guesses (floor = the smallest), as the bisection
  // runs them, and one solve per guess (floor = the guess).
  const std::vector<detail::DualTry> shared =
      detail::dual_tries(c.tasks, c.candidates, lambdas, c.cpu, c.gpu);
  int feasible = 0;
  int infeasible = 0;
  for (std::size_t k = 0; k < lambdas.size(); ++k) {
    SCOPED_TRACE(label + " lambda " + std::to_string(lambdas[k]) + " (#" +
                 std::to_string(k) + ")");
    const detail::DualTry want =
        naive_dual_try(c.tasks, c.candidates, lambdas[k], c.cpu, c.gpu);
    const detail::DualTry alone = detail::dual_try(
        c.tasks, c.candidates, lambdas[k], c.cpu, c.gpu);
    EXPECT_EQ(shared[k].feasible, want.feasible);
    EXPECT_EQ(alone.feasible, want.feasible);
    if (want.feasible) {
      EXPECT_EQ(shared[k].side, want.side);
      EXPECT_EQ(alone.side, want.side);
      ++feasible;
    } else {
      ++infeasible;
    }
  }
  return {feasible, infeasible};
}

TEST(DualTryDifferential, MatchesNaiveGreedyOnRandomReadySets) {
  util::Rng rng(41);
  int feasible = 0;
  int infeasible = 0;
  for (int rep = 0; rep < 600; ++rep) {
    const Case c = random_case(rng, rep % 5 == 0 ? 400 : 40);
    const auto [f, i] = expect_same_tries(c, boundary_lambdas(c, rng),
                                          "rep " + std::to_string(rep));
    feasible += f;
    infeasible += i;
    if (HasFailure()) return;
  }
  // Both verdicts must be well represented for the comparison to mean
  // anything.
  EXPECT_GT(feasible, 2000);
  EXPECT_GT(infeasible, 2000);
}

TEST(DualTryDifferential, MatchesNaiveGreedyOnLargeUniformSets) {
  // Thousands of flexible tasks on the paper's node: the guesses where the
  // trajectory and the CPU load sums settle the try, and the ones near the
  // cap where the CPU pass must still be simulated.
  util::Rng rng(43);
  for (const std::size_t n : {3000u, 20000u}) {
    Case c;
    for (std::size_t i = 0; i < n; ++i) {
      const double p = rng.uniform(0.5, 10.0);
      c.tasks.push_back(Task{p, p / rng.uniform(0.2, 30.0)});
    }
    c.candidates.resize(n);
    std::iota(c.candidates.begin(), c.candidates.end(), TaskId{0});
    std::stable_sort(c.candidates.begin(), c.candidates.end(),
                     [&](TaskId a, TaskId b) {
                       return c.tasks[static_cast<std::size_t>(a)].accel() >
                              c.tasks[static_cast<std::size_t>(b)].accel();
                     });
    c.cpu.assign(20, 0.0);
    c.gpu.assign(4, 0.0);
    std::vector<double> lambdas = boundary_lambdas(c, rng);
    double min_work = 0.0;
    for (const Task& t : c.tasks) min_work += t.min_time();
    for (int k = 0; k < 40; ++k) {
      lambdas.push_back(min_work / 48.0 * (0.9 + 0.3 * k / 40.0));
    }
    const auto [f, i] =
        expect_same_tries(c, lambdas, "n " + std::to_string(n));
    EXPECT_GT(f, 5);
    EXPECT_GT(i, 5);
  }
}

TEST(DualTryDifferential, SpillThatFillsTheCpusExactly) {
  // Nothing is forced at lambda = 2 (cap 4). Four tasks with rho 2 fill the
  // one GPU to exactly 4; the four with rho 1 spill, and their 8 units of
  // CPU work fill both CPUs to exactly the cap. The CPU reject test sits at
  // equality there and must let the greedy accept; just below lambda = 2
  // both tests must agree with it too.
  Case c;
  for (int i = 0; i < 4; ++i) c.tasks.push_back(Task{2.0, 1.0});
  for (int i = 0; i < 4; ++i) c.tasks.push_back(Task{2.0, 2.0});
  c.candidates = {0, 1, 2, 3, 4, 5, 6, 7};
  c.cpu.assign(2, 0.0);
  c.gpu.assign(1, 0.0);
  const std::vector<double> lambdas = {std::nextafter(2.0, 0.0), 2.0,
                                       std::nextafter(2.0, 3.0), 2.5};
  const auto [f, i] = expect_same_tries(c, lambdas, "exact fit");
  EXPECT_EQ(f, 3);
  EXPECT_EQ(i, 1);
}

TEST(DualTryDifferential, OneSidedAndZeroTimePlatforms) {
  util::Rng rng(47);
  for (int rep = 0; rep < 200; ++rep) {
    Case c = random_case(rng, 60);
    if (rep % 2 == 0) {
      c.gpu.clear();
      if (c.cpu.empty()) c.cpu.assign(3, 0.0);
    } else {
      c.cpu.clear();
      if (c.gpu.empty()) c.gpu.assign(2, 0.0);
    }
    // Zero-time tasks on either side, rho 0 or infinite.
    c.tasks[0] = Task{0.0, 1.5};
    if (c.tasks.size() > 1) c.tasks[1] = Task{2.5, 0.0};
    expect_same_tries(c, boundary_lambdas(c, rng),
                      "rep " + std::to_string(rep));
    if (HasFailure()) return;
  }
}

/// A ready set shaped like a tiled DAG's: a few kernel kinds whose tasks
/// share their times up to a little noise (or exactly, for ties), far
/// faster on the GPUs for most kinds, over residual loads on 2-20 CPUs and
/// 1-4 GPUs.
Case dag_like_case(util::Rng& rng) {
  Case c;
  c.cpu.resize(2 + static_cast<std::size_t>(rng.bounded(19)));
  c.gpu.resize(1 + static_cast<std::size_t>(rng.bounded(4)));
  for (double& load : c.cpu) {
    load = rng.bounded(3) == 0 ? 0.0 : rng.uniform(0.0, 20.0);
  }
  for (double& load : c.gpu) {
    load = rng.bounded(3) == 0 ? 0.0 : rng.uniform(0.0, 8.0);
  }
  const std::size_t kinds = 2 + static_cast<std::size_t>(rng.bounded(4));
  std::vector<Task> kernel;
  for (std::size_t k = 0; k < kinds; ++k) {
    const double q = rng.uniform(0.5, 3.0);
    kernel.push_back(Task{q * rng.uniform(0.5, 30.0), q});
  }
  const bool exact = rng.bounded(2) == 0;
  const std::size_t n = 10 + static_cast<std::size_t>(rng.bounded(60));
  for (std::size_t i = 0; i < n; ++i) {
    Task t = kernel[rng.bounded(kinds)];
    if (!exact) {
      t.cpu_time *= rng.uniform(0.95, 1.05);
      t.gpu_time *= rng.uniform(0.95, 1.05);
    }
    c.tasks.push_back(t);
  }
  c.candidates.resize(n);
  std::iota(c.candidates.begin(), c.candidates.end(), TaskId{0});
  std::stable_sort(c.candidates.begin(), c.candidates.end(),
                   [&](TaskId a, TaskId b) {
                     return c.tasks[static_cast<std::size_t>(a)].accel() >
                            c.tasks[static_cast<std::size_t>(b)].accel();
                   });
  return c;
}

/// Guesses that leave a breakpoint's interval and come back: at a candidate
/// time t itself (the lowest lambda that no longer forces t's task across
/// t), its nextafter neighbours on both sides, far below and far above,
/// and t again after each.
std::vector<double> revisiting_lambdas(const Case& c, util::Rng& rng) {
  std::vector<double> lambdas;
  for (int k = 0; k < 4; ++k) {
    const Task& t = c.tasks[rng.bounded(c.tasks.size())];
    const double at = rng.bounded(2) == 0 ? t.cpu_time : t.gpu_time;
    const double below = std::nextafter(at, 0.0);
    const double above = std::nextafter(at, 1e300);
    for (const double lambda : {at, below, above, at, below, 0.25 * at, at,
                                4.0 * at, above, at, above, below}) {
      lambdas.push_back(lambda);
    }
  }
  return lambdas;
}

TEST(DualTryDifferential, PlansReusedAcrossGuessesOnDagLikeReadySets) {
  // One solve runs every guess of a sequence, as the bisection does, so
  // the plan built for one interval answers the later guesses that fall in
  // it and is rebuilt for the ones that leave it. Most candidates are
  // forced at the guesses near the GPU times, as on the tiled DAGs.
  util::Rng rng(53);
  int forced_feasible = 0;
  int forced_infeasible = 0;
  for (int rep = 0; rep < 400; ++rep) {
    const Case c = dag_like_case(rng);
    const std::vector<double> lambdas = revisiting_lambdas(c, rng);
    expect_same_tries(c, lambdas, "rep " + std::to_string(rep));
    if (HasFailure()) return;
    for (const double lambda : lambdas) {
      std::size_t forced = 0;
      for (const Task& t : c.tasks) {
        forced += t.cpu_time > lambda || t.gpu_time > lambda ? 1 : 0;
      }
      if (2 * forced < c.tasks.size()) continue;
      const bool ok =
          naive_dual_try(c.tasks, c.candidates, lambda, c.cpu, c.gpu).feasible;
      ++(ok ? forced_feasible : forced_infeasible);
    }
  }
  // Guesses that force most candidates must go both ways.
  EXPECT_GT(forced_feasible, 1000);
  EXPECT_GT(forced_infeasible, 1000);
}

TEST(DualTryDifferential, ForcedPassThatOverflowsOnItsLastPush) {
  // Every guess in [2, 100) forces the three tasks of CPU time 100 onto the
  // one GPU (starting load 0), whose pushes end at 2, 4 and 6, and the two
  // of GPU time 100 onto the one CPU (starting load 3), ending at 5 and 7.
  // At lambda = 3.5 (cap 7) both passes fit exactly, and the flexible task
  // (times 1, 1) fills the GPU to 7. Just below 3.5 and at 3 (cap 6) the
  // CPU's last push overflows while the GPU's fits; just below 3 the GPU's
  // overflows too. One solve sees them all, so one interval's plan gives
  // every verdict in [2, 100); an infinite guess forces nothing and takes
  // every task to the GPU.
  Case c;
  for (int i = 0; i < 3; ++i) c.tasks.push_back(Task{100.0, 2.0});
  for (int i = 0; i < 2; ++i) c.tasks.push_back(Task{2.0, 100.0});
  c.tasks.push_back(Task{1.0, 1.0});
  c.candidates = {0, 1, 2, 5, 3, 4};
  c.cpu = {3.0};
  c.gpu = {0.0};
  const std::vector<double> lambdas = {
      3.5, 3.0, std::nextafter(3.5, 0.0), 3.5, std::nextafter(3.0, 0.0),
      4.0, std::nextafter(4.0, 0.0), 3.0, 2.0, std::nextafter(2.0, 0.0),
      3.5, std::numeric_limits<double>::infinity(), 3.5};
  const auto [f, i] = expect_same_tries(c, lambdas, "last push");
  EXPECT_EQ(f, 7);
  EXPECT_EQ(i, 6);
}

TEST(DualTryDifferential, NegativeAndInfiniteInputsMatchTheGreedy) {
  // A negative or infinite time or load keeps a solve off the plan: each
  // try runs the greedy's passes with the cap, one push at a time. Such
  // inputs are outside the paper's model, but the verdicts and sides must
  // still be the greedy's.
  util::Rng rng(59);
  int feasible = 0;
  int infeasible = 0;
  for (int rep = 0; rep < 300; ++rep) {
    Case c = random_case(rng, 40);
    const double spoiled = rep % 2 == 0
                               ? -rng.uniform(0.1, 3.0)
                               : std::numeric_limits<double>::infinity();
    Task& t = c.tasks[rng.bounded(c.tasks.size())];
    (rng.bounded(2) == 0 ? t.cpu_time : t.gpu_time) = spoiled;
    std::vector<double>& loads = c.cpu.empty() ? c.gpu : c.cpu;
    if (rng.bounded(3) == 0) loads[rng.bounded(loads.size())] = spoiled;
    const auto [f, i] = expect_same_tries(c, boundary_lambdas(c, rng),
                                          "rep " + std::to_string(rep));
    feasible += f;
    infeasible += i;
    if (HasFailure()) return;
  }
  EXPECT_GT(feasible, 500);
  EXPECT_GT(infeasible, 500);
}

}  // namespace
}  // namespace hp
