#pragma once
// The dual-approximation greedy of DualHP spelled out as in §6, one guess
// from scratch: the reference detail::dual_try must agree with, verdict and
// sides, bitwise. It classifies every candidate, sorts the forced tasks
// afresh, and searches the least-loaded worker per placement; it has no
// load-sum shortcut, so it also checks that the engine's shortcuts only
// settle guesses the greedy settles the same way.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "baselines/dualhp.hpp"

namespace hp {

/// One guess at `lambda`; `cpu`/`gpu` are the workers' starting loads.
inline detail::DualTry naive_dual_try(std::span<const Task> tasks,
                                      std::span<const TaskId> candidates,
                                      double lambda, std::vector<double> cpu,
                                      std::vector<double> gpu) {
  detail::DualTry r;
  r.side.assign(candidates.size(), Resource::kCpu);
  const double cap = 2.0 * lambda;
  const auto least = [](std::vector<double>& loads) -> double& {
    return *std::min_element(loads.begin(), loads.end());
  };
  std::vector<std::size_t> to_gpu, to_cpu, flexible;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Task& t = tasks[static_cast<std::size_t>(candidates[i])];
    if (t.cpu_time > lambda && t.gpu_time > lambda) return r;
    if (t.cpu_time > lambda) {
      if (gpu.empty()) return r;
      to_gpu.push_back(i);
    } else if (t.gpu_time > lambda) {
      if (cpu.empty()) return r;
      to_cpu.push_back(i);
    } else {
      flexible.push_back(i);
    }
  }
  const auto time = [&](std::size_t i, Resource side) {
    const Task& t = tasks[static_cast<std::size_t>(candidates[i])];
    return side == Resource::kGpu ? t.gpu_time : t.cpu_time;
  };
  for (const Resource side : {Resource::kGpu, Resource::kCpu}) {
    auto& forced = side == Resource::kGpu ? to_gpu : to_cpu;
    auto& loads = side == Resource::kGpu ? gpu : cpu;
    std::stable_sort(forced.begin(), forced.end(),
                     [&](std::size_t a, std::size_t b) {
                       return time(a, side) > time(b, side);
                     });
    for (const std::size_t i : forced) {
      double& load = least(loads);
      load += time(i, side);
      if (load > cap) return r;
      r.side[i] = side;
    }
  }
  std::size_t j = 0;
  for (; j < flexible.size(); ++j) {
    const std::size_t i = flexible[j];
    if (gpu.empty() || least(gpu) + time(i, Resource::kGpu) > cap) break;
    least(gpu) += time(i, Resource::kGpu);
    r.side[i] = Resource::kGpu;
  }
  for (; j < flexible.size(); ++j) {
    const std::size_t i = flexible[j];
    if (cpu.empty()) return r;
    double& load = least(cpu);
    load += time(i, Resource::kCpu);
    if (load > cap) return r;
    r.side[i] = Resource::kCpu;
  }
  r.feasible = true;
  return r;
}

}  // namespace hp
