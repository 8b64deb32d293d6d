#include "bounds/area_bound.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

#include "model/task_soa.hpp"
#include "util/key_sort.hpp"

namespace hp {

namespace {

/// The bound on a platform with one resource class: everything runs there,
/// summed in id order.
AreaSplit one_sided_split(std::span<const Task> tasks,
                          const Platform& platform) {
  AreaSplit res;
  if (platform.gpus() == 0) {
    for (const Task& t : tasks) res.cpu_work += t.cpu_time;
    res.bound = res.cpu_work / platform.cpus();
    res.split_index = 0;
  } else {
    for (const Task& t : tasks) res.gpu_work += t.gpu_time;
    res.bound = res.gpu_work / platform.gpus();
    res.split_index = tasks.size();  // everything "before the split" = on GPU
  }
  return res;
}

/// The area bound, with its scan order written to `order` when non-null.
AreaSplit solve_area(std::span<const Task> tasks, const Platform& platform,
                     std::vector<TaskId>* order) {
  const std::size_t count = tasks.size();
  if (count == 0) return {};
  if (platform.gpus() == 0 || platform.cpus() == 0) {
    if (order != nullptr) {
      order->resize(count);
      std::iota(order->begin(), order->end(), TaskId{0});
    }
    return one_sided_split(tasks, platform);
  }
  // A call-local arena, sized so its first block holds the whole call
  // (ids, then the sort keys with the key sort's scratch, then the times
  // and suffix sums): the bound is also taken outside engine runs, while
  // inputs are set up, and growing the thread's scratch arena there would
  // leave blocks that the engines' larger runs later skip over, since an
  // arena keeps every block it grows.
  const std::size_t sort_bytes = count * sizeof(util::KeyId) +
                                 util::sort_key_id_scratch_bytes(count);
  const std::size_t times_bytes = (3 * count + 1) * sizeof(double);
  util::Arena arena(count * sizeof(TaskId) +
                    std::max(sort_bytes, times_bytes) + 64);
  const std::span<const TaskId> ids = rho_order(tasks, arena);
  double* p = arena.alloc<double>(count);
  double* q = arena.alloc<double>(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Task& t = tasks[static_cast<std::size_t>(ids[i])];
    p[i] = t.cpu_time;
    q[i] = t.gpu_time;
  }
  if (order != nullptr) order->assign(ids.begin(), ids.end());
  return area_split_in_order({p, count}, {q, count}, platform,
                             {arena.alloc<double>(count + 1), count + 1});
}

}  // namespace

std::span<TaskId> rho_order(std::span<const Task> tasks, util::Arena& arena) {
  const std::size_t count = tasks.size();
  const std::span<TaskId> ids{arena.alloc<TaskId>(count), count};
  const util::ArenaScope scope(arena);
  const std::span<util::KeyId> keys{arena.alloc<util::KeyId>(count), count};
  for (std::size_t i = 0; i < count; ++i) {
    keys[i] = util::KeyId{soa::descending_key(tasks[i].accel()),
                          static_cast<std::uint32_t>(i)};
  }
  util::sort_key_id(keys, arena);
  for (std::size_t i = 0; i < count; ++i) {
    ids[i] = static_cast<TaskId>(keys[i].id);
  }
  return ids;
}

AreaSplit area_split_in_order(std::span<const double> p,
                              std::span<const double> q,
                              const Platform& platform,
                              std::span<double> suffix_cpu) {
  assert(platform.cpus() > 0 && platform.gpus() > 0);
  assert(q.size() == p.size() && suffix_cpu.size() == p.size() + 1);
  AreaSplit res;
  const std::size_t count = p.size();
  suffix_cpu[count] = 0.0;
  for (std::size_t k = count; k-- > 0;) {
    suffix_cpu[k] = suffix_cpu[k + 1] + p[k];
  }
  if (count == 0) return res;

  const double m = platform.cpus();
  const double n = platform.gpus();
  // Scan the split position. At position k, positions [0, k) are fully on
  // GPUs (load gpu_acc), position k is split with fraction g on the GPU,
  // and positions (k, count) are fully on CPUs. Balancing both sides:
  //   (gpu_acc + g*q_k)/n = (suffix_cpu[k+1] + (1-g)*p_k)/m
  double gpu_acc = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    const double g = (((suffix_cpu[k + 1] + p[k]) / m) - gpu_acc / n) /
                     (q[k] / n + p[k] / m);
    if (g <= 1.0) {
      const double clamped = std::clamp(g, 0.0, 1.0);
      res.split_index = k;
      res.gpu_fraction_of_split = clamped;
      res.threshold_accel = p[k] / q[k];
      res.gpu_work = gpu_acc + clamped * q[k];
      res.cpu_work = suffix_cpu[k + 1] + (1.0 - clamped) * p[k];
      res.bound = std::max(res.gpu_work / n, res.cpu_work / m);
      return res;
    }
    gpu_acc += q[k];
  }

  // Even the last task fully on the GPUs leaves them less loaded than the
  // (empty) CPU side would allow: everything runs on the GPUs.
  res.split_index = count;
  res.gpu_fraction_of_split = 0.0;
  res.threshold_accel = p[count - 1] / q[count - 1];
  res.gpu_work = gpu_acc;
  res.cpu_work = 0.0;
  res.bound = gpu_acc / n;
  return res;
}

AreaBoundResult area_bound(std::span<const Task> tasks,
                           const Platform& platform) {
  AreaBoundResult res;
  static_cast<AreaSplit&>(res) = solve_area(tasks, platform, &res.order);
  return res;
}

double area_bound_value(std::span<const Task> tasks, const Platform& platform) {
  return solve_area(tasks, platform, nullptr).bound;
}

double opt_lower_bound(std::span<const Task> tasks, const Platform& platform) {
  double lb = area_bound_value(tasks, platform);
  const bool has_cpu = platform.cpus() > 0;
  const bool has_gpu = platform.gpus() > 0;
  for (const Task& t : tasks) {
    // On a one-sided platform the unavailable resource's time is not a
    // valid floor: the task must run on what exists.
    const double floor = has_cpu && has_gpu ? t.min_time()
                         : has_cpu          ? t.cpu_time
                                            : t.gpu_time;
    lb = std::max(lb, floor);
  }
  return lb;
}

}  // namespace hp
