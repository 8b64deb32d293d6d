#include "baselines/dualhp.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "bounds/area_bound.hpp"
#include "dag/ready_tracker.hpp"
#include "model/task_soa.hpp"
#include "obs/profile.hpp"
#include "obs/replay.hpp"
#include "sim/event_queue.hpp"
#include "sim/worker_pool.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

namespace hp {

namespace detail {

namespace {

/// De-interleave cpu/gpu durations of all tasks into arena arrays.
struct TaskTimes {
  std::span<const double> cpu;
  std::span<const double> gpu;
};

TaskTimes split_times(std::span<const Task> tasks, util::Arena& arena) {
  double* cpu = arena.alloc<double>(tasks.size());
  double* gpu = arena.alloc<double>(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    cpu[i] = tasks[i].cpu_time;
    gpu[i] = tasks[i].gpu_time;
  }
  return TaskTimes{{cpu, tasks.size()}, {gpu, tasks.size()}};
}

/// One dual-approximation solve: fixed candidates and initial loads, tried
/// at many lambdas, all at or above `floor`. dual_try runs once per
/// bisection step and — in the DAG scheduler — the whole bisection reruns
/// every time a task becomes ready, so everything that does not depend on
/// lambda is computed once in prepare(). All storage comes from the run's
/// arena and is reused by the next solve.
struct DualSolve {
  explicit DualSolve(util::Arena& arena)
      : cpu(arena), gpu(arena), to_gpu(arena), to_cpu(arena) {}

  /// Set up a solve whose every tried lambda is >= `floor`.
  void prepare(const TaskTimes& task_times,
               std::span<const TaskId> candidate_ids,
               std::span<const double> cpu_loads,
               std::span<const double> gpu_loads, double lambda_floor,
               util::Arena& arena);

  TaskTimes times;
  std::span<const TaskId> candidates;
  std::span<const double> cpu_init;
  std::span<const double> gpu_init;
  double floor = 0.0;
  /// Slack of the load-sum rejection test (see load_bound_exceeded), or
  /// negative when the test is off for this solve.
  double margin = -1.0;
  /// Per-try working loads, refilled from cpu_init/gpu_init.
  util::ArenaVector<double> cpu;
  util::ArenaVector<double> gpu;
  /// The only candidates a lambda >= floor can force to the GPUs (cpu time
  /// above the floor), ascending (descending_key(gpu time), index) — the
  /// (duration desc, index asc) order forced tasks are placed in. At a given
  /// lambda the forced ones are a subsequence, so the order needs no
  /// re-sort. `to_cpu` is the mirror image.
  util::ArenaVector<util::KeyId> to_gpu;
  util::ArenaVector<util::KeyId> to_cpu;
};

void DualSolve::prepare(const TaskTimes& task_times,
                        std::span<const TaskId> candidate_ids,
                        std::span<const double> cpu_loads,
                        std::span<const double> gpu_loads,
                        double lambda_floor, util::Arena& arena) {
  times = task_times;
  candidates = candidate_ids;
  cpu_init = cpu_loads;
  gpu_init = gpu_loads;
  floor = lambda_floor;
  cpu.resize(cpu_loads.size());
  gpu.resize(gpu_loads.size());
  to_gpu.clear();
  to_cpu.clear();
  bool non_negative = true;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto id = static_cast<std::size_t>(candidates[i]);
    const double p = times.cpu[id];
    const double q = times.gpu[id];
    non_negative &= p >= 0.0 && q >= 0.0;
    const auto index = static_cast<std::uint32_t>(i);
    if (p > floor) to_gpu.push_back({soa::descending_key(q), index});
    if (q > floor) to_cpu.push_back({soa::descending_key(p), index});
  }
  util::sort_key_id(to_gpu.span(), arena);
  util::sort_key_id(to_cpu.span(), arena);
  for (const double load : cpu_loads) non_negative &= load >= 0.0;
  for (const double load : gpu_loads) non_negative &= load >= 0.0;
  // Each compared sum adds at most n = candidates + workers non-negative
  // terms, and so do the greedy's per-worker loads; their rounding errors
  // together stay below 3n unit roundoffs relative, which 4n epsilons (2
  // roundoffs each) cover with room to spare. 1e-9 is the floor of the
  // margin, so it only grows past that for n above ~1e6.
  const auto terms = static_cast<double>(
      candidates.size() + cpu_loads.size() + gpu_loads.size());
  constexpr double kEpsilon = std::numeric_limits<double>::epsilon();
  margin = non_negative ? std::max(1e-9, 4.0 * terms * kEpsilon) : -1.0;
}

/// Index of the least-loaded worker, ties to the lowest index: the worker a
/// (load, index) min-heap would pop. A linear scan beats the heap at the
/// platform sizes the paper uses (4 GPUs, 20 CPUs).
std::size_t least_loaded(std::span<const double> loads) {
  std::size_t best = 0;
  for (std::size_t w = 1; w < loads.size(); ++w) {
    if (loads[w] < loads[best]) best = w;
  }
  return best;
}

/// Sum of min(load, cap): what each worker's starting load can count
/// towards its capacity (see load_bound_exceeded).
double capped_sum(std::span<const double> loads, double cap) {
  double sum = 0.0;
  for (const double load : loads) sum += std::min(load, cap);
  return sum;
}

/// True when the greedy of dual_try_into must fail at `lambda` because the
/// work it has to place cannot fit under cap = 2*lambda per worker.
///
/// If the greedy succeeds, every worker that receives a task ends at or
/// below cap (each placement is checked against it), and a worker that
/// receives none keeps its starting load, which may exceed cap. Either way
/// min(start, cap) + placed work <= cap on every worker. Summed per type:
/// the GPUs hold at least the forced-GPU work, the CPUs at least the
/// forced-CPU work, and together at least forced work plus min(p, q) of
/// every flexible task. So exceeding any of the three capacities means
/// the greedy fails too, and rejecting before any push leaves the verdict
/// unchanged. `margin` absorbs the rounding of summing in a different
/// order than the greedy does; its bound assumes non-negative times and
/// loads and lambda >= 0, so the test is skipped otherwise.
bool load_bound_exceeded(const DualSolve& solve, double lambda,
                         double forced_gpu, double forced_cpu,
                         double flexible) {
  if (solve.margin < 0.0 || lambda < 0.0) return false;
  const double cap = 2.0 * lambda;
  const double slack = 1.0 + solve.margin;
  const double cpus = static_cast<double>(solve.cpu_init.size());
  const double gpus = static_cast<double>(solve.gpu_init.size());
  const double gpu_work = capped_sum(solve.gpu_init, cap) + forced_gpu;
  const double cpu_work = capped_sum(solve.cpu_init, cap) + forced_cpu;
  return gpu_work > gpus * cap * slack || cpu_work > cpus * cap * slack ||
         gpu_work + cpu_work + flexible > (cpus + gpus) * cap * slack;
}

/// dual_try over a prepared solve with a caller-owned result buffer (the
/// allocation-free hot path; the public dual_try wraps it). Durations come
/// from the de-interleaved per-task arrays — every try re-reads each
/// candidate's two doubles, so they ride in two cache-dense arrays instead
/// of strided Task records.
void dual_try_into(DualSolve& solve, double lambda, DualTry& result) {
  assert(!(lambda < solve.floor) && "lambda below the solve's floor");
  const std::span<const double> cpu_times = solve.times.cpu;
  const std::span<const double> gpu_times = solve.times.gpu;
  const std::span<const TaskId> candidates = solve.candidates;
  result.feasible = false;
  result.side.assign(candidates.size(), Resource::kCpu);
  const double cap = 2.0 * lambda;
  const bool has_cpu = !solve.cpu_init.empty();
  const bool has_gpu = !solve.gpu_init.empty();

  // A task longer than lambda on one resource is forced to the other; one
  // longer on both proves lambda < OPT. Sum the work each side must take.
  double forced_gpu = 0.0;
  double forced_cpu = 0.0;
  double flexible = 0.0;
  for (const TaskId candidate : candidates) {
    const auto id = static_cast<std::size_t>(candidate);
    const double p = cpu_times[id];
    const double q = gpu_times[id];
    const bool cpu_over = p > lambda;
    const bool gpu_over = q > lambda;
    if (cpu_over && gpu_over) return;  // lambda < OPT
    if (cpu_over) {
      if (!has_gpu) return;
      forced_gpu += q;
    } else if (gpu_over) {
      if (!has_cpu) return;
      forced_cpu += p;
    } else {
      flexible += std::min(p, q);
    }
  }
  if (load_bound_exceeded(solve, lambda, forced_gpu, forced_cpu, flexible)) {
    return;
  }

  const std::span<double> cpu = solve.cpu.span();
  const std::span<double> gpu = solve.gpu.span();
  std::copy(solve.cpu_init.begin(), solve.cpu_init.end(), cpu.begin());
  std::copy(solve.gpu_init.begin(), solve.gpu_init.end(), gpu.begin());
  const auto push_least = [](std::span<double> loads, double dt) {
    double& load = loads[least_loaded(loads)];
    load += dt;
    return load;
  };

  // Pass 1: forced assignments, by decreasing duration for tighter
  // packing (the presorted subsets, filtered to this lambda).
  for (const util::KeyId& entry : solve.to_gpu) {
    const auto id = static_cast<std::size_t>(candidates[entry.id]);
    if (!(cpu_times[id] > lambda)) continue;
    if (push_least(gpu, gpu_times[id]) > cap) return;
    result.side[entry.id] = Resource::kGpu;
  }
  for (const util::KeyId& entry : solve.to_cpu) {
    const auto id = static_cast<std::size_t>(candidates[entry.id]);
    if (!(gpu_times[id] > lambda)) continue;
    if (push_least(cpu, cpu_times[id]) > cap) return;
    result.side[entry.id] = Resource::kCpu;
  }

  // Pass 2: flexible tasks go to the GPUs by decreasing acceleration factor
  // while the resulting makespan stays within 2*lambda (candidates are
  // pre-sorted by rho).
  const auto flexible_at = [&](std::size_t id) {
    return !(cpu_times[id] > lambda) && !(gpu_times[id] > lambda);
  };
  std::size_t i = 0;
  for (; i < candidates.size(); ++i) {
    const auto id = static_cast<std::size_t>(candidates[i]);
    if (!flexible_at(id)) continue;
    if (!has_gpu) break;
    double& load = gpu[least_loaded(gpu)];
    if (load + gpu_times[id] > cap) break;
    load += gpu_times[id];
    result.side[i] = Resource::kGpu;
  }

  // Pass 3: everything else to the CPUs.
  for (; i < candidates.size(); ++i) {
    const auto id = static_cast<std::size_t>(candidates[i]);
    if (!flexible_at(id)) continue;
    if (!has_cpu || push_least(cpu, cpu_times[id]) > cap) return;
    result.side[i] = Resource::kCpu;
  }
  result.feasible = true;
}

}  // namespace

DualTry dual_try(std::span<const Task> tasks,
                 std::span<const TaskId> candidates, double lambda,
                 std::span<const double> cpu_loads,
                 std::span<const double> gpu_loads) {
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  DualSolve solve(arena);
  solve.prepare(split_times(tasks, arena), candidates, cpu_loads, gpu_loads,
                lambda, arena);
  DualTry result;
  dual_try_into(solve, lambda, result);
  return result;
}

namespace {

/// Binary search for the smallest feasible lambda; writes the best feasible
/// assignment found into `best`. `warm` seeds the upper-bound search.
/// `solve` and the two DualTry buffers are reused across all attempts.
/// Every tried lambda is >= lo: hi starts at or above it and only grows,
/// lo only rises, and mid lies in [lo, hi] — so lo is the solve's floor.
void search_lambda(const TaskTimes& times, std::span<const TaskId> candidates,
                   std::span<const double> cpu_loads,
                   std::span<const double> gpu_loads, double lower_bound,
                   double warm, int iters, double* best_lambda,
                   util::Arena& arena, DualSolve& solve, DualTry& best,
                   DualTry& attempt) {
  double lo = std::max(lower_bound, 0.0);
  double hi = std::max({warm, lo, 1e-12});
  solve.prepare(times, candidates, cpu_loads, gpu_loads, lo, arena);
  dual_try_into(solve, hi, best);
  int guard = 0;
  while (!best.feasible && guard++ < 200) {
    hi *= 1.5;
    dual_try_into(solve, hi, best);
  }
  assert(best.feasible && "dual approximation upper bound search failed");
  double best_l = hi;
  for (int it = 0; it < iters; ++it) {
    const double mid = 0.5 * (lo + hi);
    dual_try_into(solve, mid, attempt);
    if (attempt.feasible) {
      std::swap(best, attempt);
      best_l = mid;
      hi = mid;
    } else {
      lo = mid;
    }
  }
  if (best_lambda != nullptr) *best_lambda = best_l;
}

/// Packed non-increasing-accel keys for all tasks: ascending
/// (descending_key(accel), id) is exactly the old comparator (accel desc,
/// id asc), so orders stay bitwise identical.
std::span<const std::uint64_t> accel_keys(const TaskTimes& times,
                                          util::Arena& arena) {
  auto* keys = arena.alloc<std::uint64_t>(times.cpu.size());
  for (std::size_t i = 0; i < times.cpu.size(); ++i) {
    keys[i] = soa::descending_key(times.cpu[i] / times.gpu[i]);
  }
  return {keys, times.cpu.size()};
}

}  // namespace
}  // namespace detail

Schedule dualhp(std::span<const Task> tasks, const Platform& platform,
                const DualHpOptions& options) {
  Schedule schedule(tasks.size());
  if (tasks.empty()) return schedule;

  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  const obs::PhaseScope engine_scope(options.metrics, obs::Phase::kEngine);
  const detail::TaskTimes times = detail::split_times(tasks, arena);
  const std::span<const std::uint64_t> rho_key =
      detail::accel_keys(times, arena);

  const std::span<util::KeyId> by_rho{arena.alloc<util::KeyId>(tasks.size()),
                                      tasks.size()};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    by_rho[i] = util::KeyId{rho_key[i], static_cast<std::uint32_t>(i)};
  }
  util::sort_key_id(by_rho, arena);
  const std::span<TaskId> candidates{arena.alloc<TaskId>(tasks.size()),
                                     tasks.size()};
  for (std::size_t i = 0; i < by_rho.size(); ++i) {
    candidates[i] = static_cast<TaskId>(by_rho[i].id);
  }

  const std::span<const double> cpu_loads =
      arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.cpus()));
  const std::span<const double> gpu_loads =
      arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.gpus()));
  // Feasibility floor: lambda below any task's min time is always rejected
  // (the task exceeds lambda on both resources). The minimal feasible
  // lambda is typically well below OPT — around AreaBound/2 — which is what
  // makes the final 2*lambda schedule competitive; do NOT seed with the
  // area bound itself.
  double lb = 0.0;
  for (const Task& t : tasks) lb = std::max(lb, t.min_time());
  const double warm = opt_lower_bound(tasks, platform);
  detail::DualSolve solve(arena);
  detail::DualTry best, attempt;
  {
    const obs::PhaseScope bisect_scope(options.metrics,
                                       obs::Phase::kDualHpBisection);
    detail::search_lambda(times, candidates, cpu_loads, gpu_loads, lb, warm,
                          options.bisection_iters, nullptr, arena, solve,
                          best, attempt);
  }

  // Concretize: within each resource type, dispatch tasks by priority (or id
  // order for fifo) onto the least-loaded worker. Priority desc / id asc is
  // ascending (descending_key(priority), id) packed; fifo collapses to the
  // id tie-break alone.
  util::ArenaVector<util::KeyId> sides[2] = {util::ArenaVector<util::KeyId>(arena),
                                             util::ArenaVector<util::KeyId>(arena)};
  sides[0].reserve(tasks.size());
  sides[1].reserve(tasks.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const auto id = static_cast<std::size_t>(candidates[i]);
    const std::uint64_t key =
        options.fifo_order ? 0 : soa::descending_key(tasks[id].priority);
    sides[static_cast<std::size_t>(best.side[i])].push_back(
        util::KeyId{key, static_cast<std::uint32_t>(id)});
  }
  util::sort_key_id(sides[0].span(), arena);
  util::sort_key_id(sides[1].span(), arena);

  const auto lay_out = [&](std::span<const util::KeyId> ids, Resource r) {
    if (ids.empty()) return;
    using Slot = std::pair<double, WorkerId>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<>> free_at;
    const WorkerId first = platform.first(r);
    for (int k = 0; k < platform.count(r); ++k) {
      free_at.emplace(0.0, first + k);
    }
    const std::span<const double> dt_of =
        r == Resource::kCpu ? times.cpu : times.gpu;
    for (const util::KeyId& entry : ids) {
      auto [t, w] = free_at.top();
      free_at.pop();
      const double dt = dt_of[entry.id];
      schedule.place(static_cast<TaskId>(entry.id), w, t, t + dt);
      free_at.emplace(t + dt, w);
    }
  };
  lay_out(sides[static_cast<std::size_t>(Resource::kCpu)].span(),
          Resource::kCpu);
  lay_out(sides[static_cast<std::size_t>(Resource::kGpu)].span(),
          Resource::kGpu);
  obs::replay_schedule_to(schedule, platform, options.sink);
  return schedule;
}

Schedule dualhp_dag(const TaskGraph& graph, const Platform& platform,
                    const DualHpOptions& options) {
  assert(graph.finalized());
  const std::span<const Task> tasks = graph.tasks();
  Schedule schedule(tasks.size());
  if (tasks.empty()) return schedule;

  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  const obs::PhaseScope engine_scope(options.metrics, obs::Phase::kEngine);
  const detail::TaskTimes times = detail::split_times(tasks, arena);
  const std::span<const std::uint64_t> rho_key =
      detail::accel_keys(times, arena);

  sim::WorkerPool pool(platform);
  sim::EventQueue<WorkerId> events;
  ReadyTracker tracker(graph);

  // The ready set, kept sorted by (accel desc, id) at all times: releases
  // binary-search their slot, starts binary-search-and-erase theirs. The
  // per-ready-change full re-sort of the seed implementation is gone — the
  // bisection consumes the list as-is.
  util::ArenaVector<util::KeyId> ready(arena, tasks.size());
  const auto ready_insert = [&](TaskId id) {
    const util::KeyId entry{rho_key[static_cast<std::size_t>(id)],
                            static_cast<std::uint32_t>(id)};
    const auto* pos = std::lower_bound(
        ready.begin(), ready.end(), entry,
        [](const util::KeyId& a, const util::KeyId& b) {
          return a.key != b.key ? a.key < b.key : a.id < b.id;
        });
    ready.insert(const_cast<util::KeyId*>(pos), entry);
  };
  const auto ready_erase = [&](TaskId id) {
    const util::KeyId entry{rho_key[static_cast<std::size_t>(id)],
                            static_cast<std::uint32_t>(id)};
    const auto* pos = std::lower_bound(
        ready.begin(), ready.end(), entry,
        [](const util::KeyId& a, const util::KeyId& b) {
          return a.key != b.key ? a.key < b.key : a.id < b.id;
        });
    assert(pos != ready.end() && pos->id == entry.id);
    ready.erase(const_cast<util::KeyId*>(pos));
  };

  // Each task becomes ready exactly once, so sequence numbers stay below
  // tasks.size() and the inverse map fits a flat array.
  const std::span<std::int64_t> ready_seq =
      arena.alloc_zeroed<std::int64_t>(tasks.size());
  const std::span<TaskId> task_of_seq = arena.alloc_zeroed<TaskId>(tasks.size());
  std::int64_t next_seq = 0;
  const auto assign_seq = [&](TaskId id) {
    ready_seq[static_cast<std::size_t>(id)] = next_seq;
    task_of_seq[static_cast<std::size_t>(next_seq)] = id;
    ++next_seq;
  };
  for (TaskId id : tracker.initially_ready()) {
    ready_insert(id);
    assign_seq(id);
  }

  std::size_t completed = 0;
  double now = 0.0;
  double warm_lambda = opt_lower_bound(tasks, platform) /
                       std::max(1.0, static_cast<double>(tasks.size()));

  // Resource side chosen by the last dual-approximation solve. §6.2: the
  // assignment is recomputed "each time a task becomes ready"; between
  // ready-set changes, dispatching reuses the last assignment.
  const std::span<Resource> assigned_side =
      arena.alloc_zeroed<Resource>(tasks.size());
  bool ready_changed = true;

  // Hoisted scratch for the dispatch hot loop: the residual-load vectors,
  // the bisection buffers and the per-type dispatch lists live in the arena
  // and are reused across every ready-set change.
  detail::DualSolve solve(arena);
  detail::DualTry best, attempt;
  const std::span<double> cpu_loads =
      arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.cpus()));
  const std::span<double> gpu_loads =
      arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.gpus()));
  util::ArenaVector<TaskId> candidates(arena, tasks.size());
  util::ArenaVector<util::KeyId> by_type[2] = {
      util::ArenaVector<util::KeyId>(arena, tasks.size()),
      util::ArenaVector<util::KeyId>(arena, tasks.size())};
  util::ArenaVector<TaskId> started(
      arena, static_cast<std::size_t>(platform.workers()));
  std::vector<WorkerId> idle;

  auto dispatch = [&] {
    if (ready.empty()) return;
    pool.idle_workers_gpu_first(idle);
    if (idle.empty()) return;

    if (ready_changed) {
      // Residual loads of each worker at `now`.
      std::fill(cpu_loads.begin(), cpu_loads.end(), 0.0);
      std::fill(gpu_loads.begin(), gpu_loads.end(), 0.0);
      double max_residual = 0.0;
      for (WorkerId w = 0; w < platform.workers(); ++w) {
        if (!pool.busy(w)) continue;
        const double residual = pool.running(w).finish - now;
        max_residual = std::max(max_residual, residual);
        if (platform.type_of(w) == Resource::kCpu) {
          cpu_loads[static_cast<std::size_t>(w)] = residual;
        } else {
          gpu_loads[static_cast<std::size_t>(
              w - platform.first(Resource::kGpu))] = residual;
        }
      }

      // `ready` is already accel-sorted; peel the ids off.
      candidates.clear();
      for (const util::KeyId& entry : ready) {
        candidates.push_back(static_cast<TaskId>(entry.id));
      }

      double lb = 0.5 * max_residual;
      for (const TaskId id : candidates) {
        lb = std::max(lb, tasks[static_cast<std::size_t>(id)].min_time());
      }
      {
        // Sampled per-item phase: the bisection reruns on every ready-set
        // change, which is per-task-granular on wide DAGs.
        const obs::PhaseScope bisect_scope(options.metrics,
                                           obs::Phase::kDualHpBisection);
        detail::search_lambda(times, candidates.span(), cpu_loads, gpu_loads,
                              lb, warm_lambda, options.bisection_iters,
                              &warm_lambda, arena, solve, best, attempt);
      }
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        assigned_side[static_cast<std::size_t>(candidates[i])] = best.side[i];
      }
      ready_changed = false;
    }

    // Dispatch per resource type in priority (or ready) order: ascending
    // (descending_key(priority), ready_seq) packed — bitwise the old
    // (priority desc, ready_seq asc) comparator; fifo keeps only the
    // ready_seq tie-break.
    by_type[0].clear();
    by_type[1].clear();
    for (const util::KeyId& entry : ready) {
      const auto id = static_cast<std::size_t>(entry.id);
      const std::uint64_t key =
          options.fifo_order ? 0 : soa::descending_key(tasks[id].priority);
      by_type[static_cast<std::size_t>(assigned_side[id])].push_back(
          util::KeyId{key, static_cast<std::uint32_t>(ready_seq[id])});
    }
    util::sort_key_id(by_type[0].span(), arena);
    util::sort_key_id(by_type[1].span(), arena);
    // The sort key carries ready_seq, not the task id; invert back through
    // the (still tiny) sequence->task table built on the fly.
    started.clear();
    std::size_t next_of_type[2] = {0, 0};
    for (WorkerId w : idle) {
      const auto type = static_cast<std::size_t>(platform.type_of(w));
      auto& cursor = next_of_type[type];
      auto& pending = by_type[type];
      if (cursor >= pending.size()) continue;
      const TaskId id = task_of_seq[pending[cursor++].id];
      const double dt =
          (platform.type_of(w) == Resource::kCpu ? times.cpu
                                                 : times.gpu)[
              static_cast<std::size_t>(id)];
      events.push(pool.start(w, id, now, dt), w);
      started.push_back(id);
    }
    for (const TaskId id : started) ready_erase(id);
  };

  dispatch();
  while (completed < tasks.size()) {
    assert(!events.empty() && "deadlock in DualHP DAG simulation");
    const double t = events.top().time;
    now = t;
    while (!events.empty() && events.top().time == t) {
      const auto ev = events.pop();
      const WorkerId w = ev.payload;
      const sim::Running done = pool.release(w);
      schedule.place(done.task, w, done.start, done.finish);
      ++completed;
      for (TaskId released : tracker.complete(done.task)) {
        ready_insert(released);
        assign_seq(released);
        ready_changed = true;
      }
    }
    dispatch();
  }
  obs::replay_schedule_to(schedule, platform, options.sink);
  return schedule;
}

}  // namespace hp
