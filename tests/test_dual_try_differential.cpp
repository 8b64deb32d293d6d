// Differential test of DualHP's dual-approximation try against the naive
// greedy of naive_dual_try.hpp. The engine's try settles most guesses from
// a recorded GPU trajectory and CPU load sums instead of walking every
// candidate; verdicts and sides must match bitwise on every input,
// including the boundaries of those shortcuts, both for a solve prepared
// per guess and for one shared across guesses as the bisection runs them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include "baselines/dualhp.hpp"
#include "naive_dual_try.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

/// The `load + q` values of the GPU greedy run over every candidate with
/// no cap: the values the engine's trajectory records.
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

}  // namespace
}  // namespace hp
