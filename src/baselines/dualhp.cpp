#include "baselines/dualhp.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
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

/// The least-loaded worker under repeated pushes, ties to the lowest index
/// (the worker least_loaded returns), kept as a tournament tree: each
/// internal node holds the winner of its two children, the lower load with
/// ties to the left, so the root is the least-loaded worker and a push
/// replays only its leaf's path to the root: log2(workers) comparisons
/// instead of a scan of every worker. Leaves past the worker count hold
/// +inf and never win. Agrees with the scan whenever no load is NaN.
class LoadTree {
 public:
  explicit LoadTree(util::Arena& arena) : load_(arena), winner_(arena) {}

  void assign(std::span<const double> loads) {
    leaves_ = std::bit_ceil(std::max<std::size_t>(loads.size(), 1));
    load_.resize(leaves_);
    std::copy(loads.begin(), loads.end(), load_.begin());
    std::fill(load_.begin() + loads.size(), load_.end(),
              std::numeric_limits<double>::infinity());
    winner_.resize(leaves_);
    for (std::size_t node = leaves_; node-- > 1;) replay(node);
  }

  [[nodiscard]] std::size_t least() const {
    return leaves_ == 1 ? 0 : winner_[1];
  }

  [[nodiscard]] double load(std::size_t w) const { return load_[w]; }

  /// Add `dt` to worker w's load; returns the new load.
  double push(std::size_t w, double dt) {
    const double load = load_[w] += dt;
    for (std::size_t node = (w + leaves_) / 2; node >= 1; node /= 2) {
      replay(node);
    }
    return load;
  }

 private:
  std::uint32_t entrant(std::size_t node) const {
    return node >= leaves_ ? static_cast<std::uint32_t>(node - leaves_)
                           : winner_[node];
  }
  void replay(std::size_t node) {
    const std::uint32_t left = entrant(2 * node);
    const std::uint32_t right = entrant(2 * node + 1);
    winner_[node] = load_[right] < load_[left] ? right : left;
  }

  util::ArenaVector<double> load_;
  util::ArenaVector<std::uint32_t> winner_;
  std::size_t leaves_ = 1;
};

/// One dual-approximation solve: fixed candidates and initial loads, tried
/// at many lambdas, all at or above `floor`. dual_try runs once per
/// bisection step and — in the DAG scheduler — the whole bisection reruns
/// every time a task becomes ready, so everything that does not depend on
/// lambda is computed once in prepare(), or once per solve on first use.
/// All storage comes from the run's arena and is reused by the next solve.
struct DualSolve {
  explicit DualSolve(util::Arena& arena)
      : forcable(arena),
        to_gpu(arena),
        to_cpu(arena),
        cpu(arena),
        gpu(arena),
        gpu_peak(arena),
        p_suffix(arena),
        p_suffix_max(arena),
        cpu_tree(arena) {}

  /// Set up a solve whose every tried lambda is >= `floor`. `p`/`q` are the
  /// candidates' CPU and GPU times, sorted by non-increasing acceleration
  /// factor.
  void prepare(std::span<const double> p_times,
               std::span<const double> q_times,
               std::span<const double> cpu_loads,
               std::span<const double> gpu_loads, double lambda_floor,
               util::Arena& arena);

  std::span<const double> p;
  std::span<const double> q;
  std::span<const double> cpu_init;
  std::span<const double> gpu_init;
  double floor = 0.0;
  /// Slack of the load-sum tests (see load_bound_exceeded), or negative
  /// when they are off for this solve.
  double margin = -1.0;
  /// margin >= 0 and every time and load finite: the GPU trajectory may
  /// stand in for the GPU pass (build_trajectory).
  bool finite = false;
  /// Sum of min(p, q) over the candidates no lambda >= floor can force.
  double never_forced_min = 0.0;
  /// Indices of the candidates some lambda >= floor can force (p or q above
  /// the floor), ascending. The forced-work scan walks only these.
  util::ArenaVector<std::uint32_t> forcable;
  /// The only candidates a lambda >= floor can force to the GPUs (cpu time
  /// above the floor), ascending (descending_key(gpu time), index) — the
  /// (duration desc, index asc) order forced tasks are placed in. At a given
  /// lambda the forced ones are a subsequence, so the order needs no
  /// re-sort. `to_cpu` is the mirror image.
  util::ArenaVector<util::KeyId> to_gpu;
  util::ArenaVector<util::KeyId> to_cpu;
  /// Per-try working loads, refilled from cpu_init/gpu_init.
  util::ArenaVector<double> cpu;
  util::ArenaVector<double> gpu;

  /// Built by the first try that forces nothing (build_trajectory):
  /// gpu_peak[i] is the largest `load + q` among the first i + 1 pushes of
  /// the GPU greedy run without a cap over every candidate; p_suffix[i] and
  /// p_suffix_max[i] are the sum and the maximum of p over candidates i..
  bool trajectory_built = false;
  util::ArenaVector<double> gpu_peak;
  util::ArenaVector<double> p_suffix;
  util::ArenaVector<double> p_suffix_max;
  /// The CPU pass's loads (cpu_pass).
  LoadTree cpu_tree;
};

void DualSolve::prepare(std::span<const double> p_times,
                        std::span<const double> q_times,
                        std::span<const double> cpu_loads,
                        std::span<const double> gpu_loads,
                        double lambda_floor, util::Arena& arena) {
  p = p_times;
  q = q_times;
  cpu_init = cpu_loads;
  gpu_init = gpu_loads;
  floor = lambda_floor;
  trajectory_built = false;
  cpu.resize(cpu_loads.size());
  gpu.resize(gpu_loads.size());

  // Count first, so each list is reserved at its exact size.
  bool non_negative = true;
  bool all_finite = true;
  double never = 0.0;
  std::size_t forcable_count = 0;
  std::size_t gpu_count = 0;
  std::size_t cpu_count = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double pi = p[i];
    const double qi = q[i];
    non_negative &= pi >= 0.0 && qi >= 0.0;
    all_finite &= std::isfinite(pi) && std::isfinite(qi);
    const bool gpu_side = pi > floor;
    const bool cpu_side = qi > floor;
    if (gpu_side || cpu_side) {
      ++forcable_count;
      gpu_count += gpu_side ? 1 : 0;
      cpu_count += cpu_side ? 1 : 0;
    } else {
      never += std::min(pi, qi);
    }
  }
  never_forced_min = never;
  forcable.clear();
  to_gpu.clear();
  to_cpu.clear();
  forcable.reserve(forcable_count);
  to_gpu.reserve(gpu_count);
  to_cpu.reserve(cpu_count);
  for (std::size_t i = 0; forcable.size() < forcable_count; ++i) {
    const bool gpu_side = p[i] > floor;
    const bool cpu_side = q[i] > floor;
    if (!gpu_side && !cpu_side) continue;
    const auto index = static_cast<std::uint32_t>(i);
    forcable.push_back(index);
    if (gpu_side) to_gpu.push_back({soa::descending_key(q[i]), index});
    if (cpu_side) to_cpu.push_back({soa::descending_key(p[i]), index});
  }
  util::sort_key_id(to_gpu.span(), arena);
  util::sort_key_id(to_cpu.span(), arena);
  for (const double load : cpu_loads) {
    non_negative &= load >= 0.0;
    all_finite &= std::isfinite(load);
  }
  for (const double load : gpu_loads) {
    non_negative &= load >= 0.0;
    all_finite &= std::isfinite(load);
  }
  // Each compared sum adds at most n = candidates + workers non-negative
  // terms, and so do the greedy's per-worker loads; their rounding errors
  // together stay below 3n unit roundoffs relative, which 4n epsilons (2
  // roundoffs each) cover with room to spare. 1e-9 is the floor of the
  // margin, so it only grows past that for n above ~1e6.
  const auto terms =
      static_cast<double>(p.size() + cpu_loads.size() + gpu_loads.size());
  constexpr double kEpsilon = std::numeric_limits<double>::epsilon();
  margin = non_negative ? std::max(1e-9, 4.0 * terms * kEpsilon) : -1.0;
  finite = non_negative && all_finite;
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

/// Record the GPU pass of every lambda that forces nothing, in one run.
///
/// When no candidate is forced, the GPU pass starts from the initial GPU
/// loads and offers every candidate in order; it pushes `load + q` onto the
/// least-loaded GPU until the first push that would exceed cap = 2*lambda.
/// Up to that push it makes the same moves whatever the cap, so one run
/// without a cap performs them all and sees the same doubles. gpu_peak[i],
/// the running maximum of those `load + q` values, is non-decreasing, and
/// the pass at cap breaks at the first i with gpu_peak[i] > cap: a binary
/// search. The suffix sums of p feed the CPU-pass tests of cpu_pass.
void build_trajectory(DualSolve& solve) {
  const std::size_t count = solve.p.size();
  const std::span<double> gpu = solve.gpu.span();
  std::copy(solve.gpu_init.begin(), solve.gpu_init.end(), gpu.begin());
  solve.gpu_peak.resize(count);
  double peak = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    double& load = gpu[least_loaded(gpu)];
    load += solve.q[i];
    peak = std::max(peak, load);
    solve.gpu_peak[i] = peak;
  }
  solve.p_suffix.resize(count + 1);
  solve.p_suffix_max.resize(count + 1);
  solve.p_suffix[count] = 0.0;
  solve.p_suffix_max[count] = 0.0;
  for (std::size_t k = count; k-- > 0;) {
    solve.p_suffix[k] = solve.p_suffix[k + 1] + solve.p[k];
    solve.p_suffix_max[k] = std::max(solve.p_suffix_max[k + 1], solve.p[k]);
  }
  solve.trajectory_built = true;
}

/// Pass 3: the flexible candidates from index `from` on go to the CPUs,
/// each onto the least-loaded one; false when a push ends above cap. `cpu`
/// holds the loads the forced passes left. `from_trajectory` says that no
/// candidate is forced at `lambda` and the trajectory is built, so the
/// spilled candidates are exactly from..end and their sums are stored.
///
/// Two tests settle most tries without pushing. Let c_w be the m CPU loads
/// on entry, S the spilled work and P its largest task.
///  - Reject when sum_w min(c_w, cap) + S > m * cap * (1 + margin). If the
///    pass succeeds, a CPU that receives a task ends at or below cap, so
///    it started at or below cap too; one that receives none keeps c_w.
///    Either way min(c_w, cap) + its placed work <= cap, and summing over
///    the CPUs bounds the left side by m * cap.
///  - Accept when (sum_w c_w + S) / m + P <= cap / (1 + margin). Every
///    push goes onto a least-loaded CPU, whose load is at most the average
///    of the current loads, which is at most (sum_w c_w + S - p) / m for
///    the pushed p. So every push ends at or below (sum_w c_w + S) / m + P.
/// `margin` covers the rounding of these sums against the greedy's own, as
/// in load_bound_exceeded, whose preconditions both tests share. The pushes
/// that remain pick their CPU from cpu_tree.
bool cpu_pass(DualSolve& solve, double lambda, std::size_t from,
              bool from_trajectory) {
  const std::span<const double> p = solve.p;
  const std::span<const double> q = solve.q;
  const std::size_t count = p.size();
  const double cap = 2.0 * lambda;
  double spilled = 0.0;
  double largest = 0.0;
  std::size_t spilled_count = 0;
  if (from_trajectory) {
    spilled = solve.p_suffix[from];
    largest = solve.p_suffix_max[from];
    spilled_count = count - from;
  } else {
    for (std::size_t i = from; i < count; ++i) {
      if (p[i] > lambda || q[i] > lambda) continue;
      spilled += p[i];
      largest = std::max(largest, p[i]);
      ++spilled_count;
    }
  }
  if (spilled_count == 0) return true;
  const std::span<double> cpu = solve.cpu.span();
  if (cpu.empty()) return false;

  if (solve.margin >= 0.0 && lambda >= 0.0) {
    const double cpus = static_cast<double>(cpu.size());
    const double slack = 1.0 + solve.margin;
    if (capped_sum(cpu, cap) + spilled > cpus * cap * slack) return false;
    double total = spilled;
    for (const double load : cpu) total += load;
    if (total / cpus + largest <= cap / slack) return true;
  }

  LoadTree& tree = solve.cpu_tree;
  tree.assign(cpu);
  for (std::size_t i = from; i < count; ++i) {
    if (p[i] > lambda || q[i] > lambda) continue;
    if (tree.push(tree.least(), p[i]) > cap) return false;
  }
  return true;
}

/// One guess at `lambda` over a prepared solve. On success, `split` is where
/// the GPU pass stopped: flexible candidates before it go to the GPUs, the
/// rest to the CPUs (side_of). Times come from the solve's candidate-order
/// arrays, so every pass reads them sequentially.
bool dual_try_into(DualSolve& solve, double lambda, std::size_t& split) {
  assert(!(lambda < solve.floor) && "lambda below the solve's floor");
  const std::span<const double> p = solve.p;
  const std::span<const double> q = solve.q;
  const std::size_t count = p.size();
  const double cap = 2.0 * lambda;
  const bool has_cpu = !solve.cpu_init.empty();
  const bool has_gpu = !solve.gpu_init.empty();

  // A task longer than lambda on one resource is forced to the other; one
  // longer on both proves lambda < OPT. Sum the work each side must take.
  // Only the forcable candidates can be forced; the rest are flexible.
  double forced_gpu = 0.0;
  double forced_cpu = 0.0;
  double flexible = solve.never_forced_min;
  bool any_forced = false;
  for (const std::uint32_t i : solve.forcable) {
    const bool cpu_over = p[i] > lambda;
    const bool gpu_over = q[i] > lambda;
    if (cpu_over && gpu_over) return false;  // lambda < OPT
    if (cpu_over) {
      if (!has_gpu) return false;
      forced_gpu += q[i];
      any_forced = true;
    } else if (gpu_over) {
      if (!has_cpu) return false;
      forced_cpu += p[i];
      any_forced = true;
    } else {
      flexible += std::min(p[i], q[i]);
    }
  }
  if (load_bound_exceeded(solve, lambda, forced_gpu, forced_cpu, flexible)) {
    return false;
  }

  const std::span<double> cpu = solve.cpu.span();
  std::copy(solve.cpu_init.begin(), solve.cpu_init.end(), cpu.begin());
  if (!any_forced && has_gpu && solve.finite) {
    // Nothing forced: the GPU pass is a prefix of the trajectory.
    if (!solve.trajectory_built) build_trajectory(solve);
    const double* peak = solve.gpu_peak.begin();
    split = static_cast<std::size_t>(
        std::upper_bound(peak, peak + count, cap) - peak);
    return cpu_pass(solve, lambda, split, true);
  }

  const std::span<double> gpu = solve.gpu.span();
  std::copy(solve.gpu_init.begin(), solve.gpu_init.end(), gpu.begin());
  const auto push_least = [](std::span<double> loads, double dt) {
    double& load = loads[least_loaded(loads)];
    load += dt;
    return load;
  };

  // Pass 1: forced assignments, by decreasing duration for tighter
  // packing (the presorted subsets, filtered to this lambda).
  if (any_forced) {
    for (const util::KeyId& entry : solve.to_gpu) {
      if (!(p[entry.id] > lambda)) continue;
      if (push_least(gpu, q[entry.id]) > cap) return false;
    }
    for (const util::KeyId& entry : solve.to_cpu) {
      if (!(q[entry.id] > lambda)) continue;
      if (push_least(cpu, p[entry.id]) > cap) return false;
    }
  }

  // Pass 2: flexible tasks go to the GPUs by decreasing acceleration factor
  // while the resulting makespan stays within 2*lambda (candidates are
  // pre-sorted by rho).
  std::size_t i = 0;
  for (; i < count; ++i) {
    if (p[i] > lambda || q[i] > lambda) continue;
    if (!has_gpu) break;
    double& load = gpu[least_loaded(gpu)];
    if (load + q[i] > cap) break;
    load += q[i];
  }
  split = i;
  return cpu_pass(solve, lambda, i, false);
}

/// The side a feasible guess gives candidate i (CPU time p, GPU time q):
/// forced ones the resource they are forced to, flexible ones the GPUs
/// before the GPU pass's stop `split` and the CPUs from it on.
Resource side_of(double p, double q, double lambda, std::size_t i,
                 std::size_t split) {
  if (p > lambda) return Resource::kGpu;
  if (q > lambda) return Resource::kCpu;
  return i < split ? Resource::kGpu : Resource::kCpu;
}

/// The smallest feasible guess the bisection found, and its GPU stop.
struct DualPick {
  double lambda = 0.0;
  std::size_t split = 0;
};

/// Binary search for the smallest feasible lambda. `warm` seeds the
/// upper-bound search. A try records only its verdict and split; the sides
/// are materialized once, from the pick (side_of). Every tried lambda is
/// >= lo: hi starts at or above it and only grows, lo only rises, and mid
/// lies in [lo, hi] — so lo is the solve's floor.
DualPick search_lambda(DualSolve& solve, std::span<const double> p,
                       std::span<const double> q,
                       std::span<const double> cpu_loads,
                       std::span<const double> gpu_loads, double lower_bound,
                       double warm, int iters, util::Arena& arena) {
  double lo = std::max(lower_bound, 0.0);
  double hi = std::max({warm, lo, 1e-12});
  solve.prepare(p, q, cpu_loads, gpu_loads, lo, arena);
  DualPick best;
  bool feasible = dual_try_into(solve, hi, best.split);
  int guard = 0;
  while (!feasible && guard++ < 200) {
    hi *= 1.5;
    feasible = dual_try_into(solve, hi, best.split);
  }
  assert(feasible && "dual approximation upper bound search failed");
  best.lambda = hi;
  for (int it = 0; it < iters; ++it) {
    const double mid = 0.5 * (lo + hi);
    std::size_t split = 0;
    if (dual_try_into(solve, mid, split)) {
      best = DualPick{mid, split};
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return best;
}

}  // namespace

std::vector<DualTry> dual_tries(std::span<const Task> tasks,
                                std::span<const TaskId> candidates,
                                std::span<const double> lambdas,
                                std::span<const double> cpu_loads,
                                std::span<const double> gpu_loads) {
  std::vector<DualTry> results(lambdas.size());
  if (lambdas.empty()) return results;
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  const std::size_t count = candidates.size();
  double* p = arena.alloc<double>(count);
  double* q = arena.alloc<double>(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Task& t = tasks[static_cast<std::size_t>(candidates[i])];
    p[i] = t.cpu_time;
    q[i] = t.gpu_time;
  }
  DualSolve solve(arena);
  solve.prepare({p, count}, {q, count}, cpu_loads, gpu_loads,
                *std::min_element(lambdas.begin(), lambdas.end()), arena);
  for (std::size_t k = 0; k < lambdas.size(); ++k) {
    std::size_t split = 0;
    results[k].feasible = dual_try_into(solve, lambdas[k], split);
    if (!results[k].feasible) continue;
    results[k].side.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      results[k].side[i] = side_of(p[i], q[i], lambdas[k], i, split);
    }
  }
  return results;
}

DualTry dual_try(std::span<const Task> tasks,
                 std::span<const TaskId> candidates, double lambda,
                 std::span<const double> cpu_loads,
                 std::span<const double> gpu_loads) {
  return std::move(
      dual_tries(tasks, candidates, {&lambda, 1}, cpu_loads, gpu_loads)[0]);
}

}  // namespace detail

Schedule dualhp(std::span<const Task> tasks, const Platform& platform,
                const DualHpOptions& options) {
  Schedule schedule(tasks.size());
  if (tasks.empty()) return schedule;

  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope scope(arena);
  const obs::PhaseScope engine_scope(options.metrics, obs::Phase::kEngine);
  const std::size_t count = tasks.size();
  const bool has_cpu = platform.cpus() > 0;
  const bool has_gpu = platform.gpus() > 0;

  // The one scan order: candidates by (rho desc, id), their times gathered
  // in that order. It serves the warm-start area bound, every bisection
  // try and the side materialization.
  //
  // Feasibility floor: lambda below any task's min time is always rejected
  // (the task exceeds lambda on both resources). The minimal feasible
  // lambda is typically well below OPT — around AreaBound/2 — which is what
  // makes the final 2*lambda schedule competitive; do NOT seed with the
  // area bound itself. The warm start is opt_lower_bound's value: the area
  // bound or the largest per-task floor on this platform.
  const std::span<const TaskId> candidates = rho_order(tasks, arena);
  const std::span<double> p{arena.alloc<double>(count), count};
  const std::span<double> q{arena.alloc<double>(count), count};
  double lb = 0.0;
  double task_floor = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < count; ++i) {
    const Task& t = tasks[static_cast<std::size_t>(candidates[i])];
    p[i] = t.cpu_time;
    q[i] = t.gpu_time;
    lb = std::max(lb, t.min_time());
    task_floor = std::max(task_floor, has_cpu && has_gpu ? t.min_time()
                                      : has_cpu          ? t.cpu_time
                                                         : t.gpu_time);
  }

  detail::DualPick pick;
  {
    const util::ArenaScope search_scope(arena);
    double area = 0.0;
    if (has_cpu && has_gpu) {
      const util::ArenaScope area_scope(arena);  // frees the suffix sums
      area = area_split_in_order(p, q, platform,
                                 {arena.alloc<double>(count + 1), count + 1})
                 .bound;
    } else {
      area = area_bound_value(tasks, platform);  // id-order sums, no sort
    }
    const double warm = std::max(area, task_floor);
    const std::span<const double> cpu_loads =
        arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.cpus()));
    const std::span<const double> gpu_loads =
        arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.gpus()));
    detail::DualSolve solve(arena);
    const obs::PhaseScope bisect_scope(options.metrics,
                                       obs::Phase::kDualHpBisection);
    pick = detail::search_lambda(solve, p, q, cpu_loads, gpu_loads, lb, warm,
                                 options.bisection_iters, arena);
  }

  // Concretize: within each resource type, dispatch tasks by priority (or id
  // order for fifo) onto the earliest-free worker. Priority desc / id asc is
  // ascending (descending_key(priority), id) packed; fifo collapses to the
  // id tie-break alone. One array holds both lists: the GPU side fills it
  // from the front, the CPU side from the back, and each is then sorted.
  const std::span<util::KeyId> by_side{arena.alloc<util::KeyId>(count),
                                       count};
  std::size_t on_gpu = 0;
  std::size_t on_cpu = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const auto id = static_cast<std::size_t>(candidates[i]);
    const util::KeyId entry{
        options.fifo_order ? 0 : soa::descending_key(tasks[id].priority),
        static_cast<std::uint32_t>(id)};
    if (detail::side_of(p[i], q[i], pick.lambda, i, pick.split) ==
        Resource::kGpu) {
      by_side[on_gpu++] = entry;
    } else {
      by_side[count - ++on_cpu] = entry;
    }
  }
  const std::span<util::KeyId> gpu_side = by_side.first(on_gpu);
  const std::span<util::KeyId> cpu_side = by_side.last(on_cpu);
  util::sort_key_id(gpu_side, arena);
  util::sort_key_id(cpu_side, arena);

  // The earliest-free worker of a type is the least-loaded leaf of a
  // LoadTree over the workers' free times: the (time, worker) pair a
  // min-heap would pop, since ties go to the lowest worker.
  detail::LoadTree free_at(arena);
  const auto lay_out = [&](std::span<const util::KeyId> ids, Resource r) {
    if (ids.empty()) return;
    const WorkerId first = platform.first(r);
    free_at.assign(arena.alloc_zeroed<double>(
        static_cast<std::size_t>(platform.count(r))));
    for (const util::KeyId& entry : ids) {
      const std::size_t k = free_at.least();
      const double dt = Platform::time_on(tasks[entry.id], r);
      const double t = free_at.load(k);
      schedule.place(static_cast<TaskId>(entry.id),
                     first + static_cast<WorkerId>(k), t, free_at.push(k, dt));
    }
  };
  lay_out(cpu_side, Resource::kCpu);
  lay_out(gpu_side, Resource::kGpu);
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
  // Packed non-increasing-accel keys: ascending (descending_key(accel), id)
  // is the scan order of rho_order.
  const std::span<std::uint64_t> rho_key{
      arena.alloc<std::uint64_t>(tasks.size()), tasks.size()};
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    rho_key[i] = soa::descending_key(tasks[i].accel());
  }

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
  const std::span<double> cpu_loads =
      arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.cpus()));
  const std::span<double> gpu_loads =
      arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.gpus()));
  util::ArenaVector<double> cand_p(arena, tasks.size());
  util::ArenaVector<double> cand_q(arena, tasks.size());
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

      // `ready` is already accel-sorted; gather its times in that order.
      double lb = 0.5 * max_residual;
      cand_p.clear();
      cand_q.clear();
      for (const util::KeyId& entry : ready) {
        const Task& t = tasks[entry.id];
        cand_p.push_back(t.cpu_time);
        cand_q.push_back(t.gpu_time);
        lb = std::max(lb, t.min_time());
      }
      detail::DualPick pick;
      {
        // Sampled per-item phase: the bisection reruns on every ready-set
        // change, which is per-task-granular on wide DAGs.
        const obs::PhaseScope bisect_scope(options.metrics,
                                           obs::Phase::kDualHpBisection);
        pick = detail::search_lambda(solve, cand_p.span(), cand_q.span(),
                                     cpu_loads, gpu_loads, lb, warm_lambda,
                                     options.bisection_iters, arena);
      }
      warm_lambda = pick.lambda;
      for (std::size_t i = 0; i < ready.size(); ++i) {
        assigned_side[ready[i].id] = detail::side_of(
            cand_p[i], cand_q[i], pick.lambda, i, pick.split);
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
      const double dt = Platform::time_on(tasks[static_cast<std::size_t>(id)],
                                          platform.type_of(w));
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
