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

/// Add `dt` to the least-loaded worker's load; returns the new load.
double push_least(std::span<double> loads, double dt) {
  double& load = loads[least_loaded(loads)];
  load += dt;
  return load;
}

/// One dual-approximation solve: fixed candidates and initial loads, tried
/// at many lambdas, all at or above `floor`. dual_try runs once per
/// bisection step and — in the DAG scheduler — the whole bisection reruns
/// every time a task becomes ready, so what does not depend on lambda is
/// computed once per solve (prepare), and what depends on lambda only
/// through the forced sets is computed once per interval of lambdas that
/// force the same candidates: the plan (plan_interval, plan_passes; see
/// docs/perf.md § "The forced-set plan"). A solve with a negative or
/// non-finite time or load keeps the interval's verdict and sums but runs
/// each try's passes with the cap (simulated_passes). All storage comes
/// from the run's arena and is reused by the next solve.
struct DualSolve {
  explicit DualSolve(util::Arena& scratch)
      : arena(scratch),
        forcable(scratch),
        to_gpu(scratch),
        to_cpu(scratch),
        cpu(scratch),
        gpu(scratch),
        flex(scratch),
        flex_p_store(scratch),
        gpu_peak(scratch),
        p_suffix(scratch),
        p_suffix_max(scratch),
        cpu_tree(scratch) {}

  /// Set up a solve whose every tried lambda is >= `floor`. `p`/`q` are the
  /// candidates' CPU and GPU times, sorted by non-increasing acceleration
  /// factor. The forced orders start empty, reserved at their sizes: the
  /// caller sorts them (sort_forced) or fills them from orders it keeps.
  void prepare(std::span<const double> p_times,
               std::span<const double> q_times,
               std::span<const double> cpu_loads,
               std::span<const double> gpu_loads, double lambda_floor);

  /// Fill to_gpu and to_cpu by sorting the forcable candidates.
  void sort_forced();

  /// lambda lies in the plan's interval.
  [[nodiscard]] bool covers(double lambda) const {
    return plan_lo <= lambda && lambda < plan_hi;
  }

  util::Arena& arena;
  std::span<const double> p;
  std::span<const double> q;
  std::span<const double> cpu_init;
  std::span<const double> gpu_init;
  double floor = 0.0;
  /// Slack of the load-sum tests (see load_bound_exceeded), or negative
  /// when they are off for this solve.
  double margin = -1.0;
  /// margin >= 0 and every time and load finite: the tries read the plan's
  /// passes.
  bool finite = false;
  /// Sum of min(p, q) over the candidates no lambda >= floor can force.
  double never_forced_min = 0.0;
  /// Indices of the candidates some lambda >= floor can force (p or q above
  /// the floor), ascending. The plan's scan walks only these.
  util::ArenaVector<std::uint32_t> forcable;
  /// The only candidates a lambda >= floor can force to the GPUs (cpu time
  /// above the floor), ascending (descending_key(gpu time), index) — the
  /// (duration desc, index asc) order forced tasks are placed in. At a given
  /// lambda the forced ones are a subsequence, so the order needs no
  /// re-sort. `to_cpu` is the mirror image.
  util::ArenaVector<util::KeyId> to_gpu;
  util::ArenaVector<util::KeyId> to_cpu;
  /// The loads the forced passes leave: the plan's, or a simulated try's.
  util::ArenaVector<double> cpu;
  util::ArenaVector<double> gpu;

  /// The plan. Every lambda in [plan_lo, plan_hi) forces the same
  /// candidates; the interval starts empty.
  double plan_lo = 0.0;
  double plan_hi = 0.0;
  /// Some candidate is over lambda on both sides, or forced to a side
  /// without workers: every lambda of the interval fails.
  bool plan_infeasible = false;
  /// The work the forced and flexible candidates bring, summed in candidate
  /// order (load_bound_exceeded).
  double forced_gpu = 0.0;
  double forced_cpu = 0.0;
  double flexible = 0.0;
  std::size_t forced_count = 0;
  /// The rest is built by the first try that passes the load-sum test
  /// (plan_passes): the largest load each forced pass reaches without a
  /// cap, and what it leaves in cpu/gpu.
  bool passes_built = false;
  double gpu_forced_peak = 0.0;
  double cpu_forced_peak = 0.0;
  /// The flexible candidates' indices, ascending; left empty when nothing
  /// is forced, where the flexible candidates are all of them.
  util::ArenaVector<std::uint32_t> flex;
  /// Their CPU times in that order: `p` itself when nothing is forced, else
  /// gathered here. A simulated try gathers its spilled candidates here.
  util::ArenaVector<double> flex_p_store;
  std::span<const double> flex_p;
  /// gpu_peak[k] is the largest `load + q` among the first k + 1 pushes of
  /// the GPU pass 2 without a cap over the flexible candidates; p_suffix[k]
  /// and p_suffix_max[k] are the sum and the maximum of flex_p[k..].
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
                        double lambda_floor) {
  p = p_times;
  q = q_times;
  cpu_init = cpu_loads;
  gpu_init = gpu_loads;
  floor = lambda_floor;
  plan_lo = std::numeric_limits<double>::infinity();
  plan_hi = -std::numeric_limits<double>::infinity();
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
    if (p[i] > floor || q[i] > floor) {
      forcable.push_back(static_cast<std::uint32_t>(i));
    }
  }
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

void DualSolve::sort_forced() {
  for (const std::uint32_t i : forcable) {
    if (p[i] > floor) to_gpu.push_back({soa::descending_key(q[i]), i});
    if (q[i] > floor) to_cpu.push_back({soa::descending_key(p[i]), i});
  }
  util::sort_key_id(to_gpu.span(), arena);
  util::sort_key_id(to_cpu.span(), arena);
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

/// Start the plan of the interval around `lambda`: the interval, the static
/// verdict and the load sums, in one walk over the forcable candidates.
///
/// A candidate is forced at lambda when a time of it exceeds lambda. Let
/// plan_lo be the largest forcable time <= lambda and plan_hi the smallest
/// one > lambda: no forcable time lies strictly between them, so every
/// lambda' in [plan_lo, plan_hi) finds each such time on the same side of
/// it as lambda does. The other candidates stay at or below the floor and
/// are never forced. So the forced sets, and everything computed from them
/// here, are the same across the interval.
void plan_interval(DualSolve& solve, double lambda) {
  const std::span<const double> p = solve.p;
  const std::span<const double> q = solve.q;
  const bool has_cpu = !solve.cpu_init.empty();
  const bool has_gpu = !solve.gpu_init.empty();
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  double forced_gpu = 0.0;
  double forced_cpu = 0.0;
  double flexible = solve.never_forced_min;
  std::size_t forced = 0;
  bool infeasible = false;
  for (const std::uint32_t i : solve.forcable) {
    const double pi = p[i];
    const double qi = q[i];
    const bool cpu_over = pi > lambda;
    const bool gpu_over = qi > lambda;
    if (cpu_over) {
      hi = std::min(hi, pi);
    } else {
      lo = std::max(lo, pi);
    }
    if (gpu_over) {
      hi = std::min(hi, qi);
    } else {
      lo = std::max(lo, qi);
    }
    if (cpu_over && gpu_over) {
      infeasible = true;  // lambda < OPT
    } else if (cpu_over) {
      infeasible |= !has_gpu;
      forced_gpu += qi;
      ++forced;
    } else if (gpu_over) {
      infeasible |= !has_cpu;
      forced_cpu += pi;
      ++forced;
    } else {
      flexible += std::min(pi, qi);
    }
  }
  solve.plan_lo = lo;
  solve.plan_hi = hi;
  solve.plan_infeasible = infeasible;
  solve.forced_gpu = forced_gpu;
  solve.forced_cpu = forced_cpu;
  solve.flexible = flexible;
  solve.forced_count = forced;
  solve.passes_built = false;
}

/// Finish the plan: run the passes of the greedy once without a cap.
///
/// Each pass pushes `load + time` onto the least-loaded worker of its side,
/// and the capped greedy fails or stops at the first push that ends above
/// cap = 2*lambda. Up to that push it makes the same moves whatever the
/// cap, so one run without a cap performs them all and sees the same
/// doubles: a forced pass fails at cap exactly when its largest push
/// exceeds cap, and the GPU pass 2 stops at the first flexible candidate k
/// with gpu_peak[k] > cap, a binary search over the non-decreasing running
/// maximum. The CPU pass starts from the loads the forced CPU pass leaves,
/// which are the same at every cap it survives.
void plan_passes(DualSolve& solve, double lambda) {
  const std::span<const double> p = solve.p;
  const std::span<const double> q = solve.q;
  const std::span<double> cpu = solve.cpu.span();
  const std::span<double> gpu = solve.gpu.span();
  std::copy(solve.cpu_init.begin(), solve.cpu_init.end(), cpu.begin());
  std::copy(solve.gpu_init.begin(), solve.gpu_init.end(), gpu.begin());
  double gpu_forced_peak = -std::numeric_limits<double>::infinity();
  double cpu_forced_peak = -std::numeric_limits<double>::infinity();
  double peak = -std::numeric_limits<double>::infinity();
  solve.flex.clear();
  solve.gpu_peak.clear();
  if (solve.forced_count == 0) {
    solve.flex_p = p;
    if (!gpu.empty()) {
      solve.gpu_peak.resize(q.size());
      for (std::size_t i = 0; i < q.size(); ++i) {
        peak = std::max(peak, push_least(gpu, q[i]));
        solve.gpu_peak[i] = peak;
      }
    }
  } else {
    for (const util::KeyId& entry : solve.to_gpu) {
      if (!(p[entry.id] > lambda)) continue;
      gpu_forced_peak =
          std::max(gpu_forced_peak, push_least(gpu, q[entry.id]));
    }
    for (const util::KeyId& entry : solve.to_cpu) {
      if (!(q[entry.id] > lambda)) continue;
      cpu_forced_peak =
          std::max(cpu_forced_peak, push_least(cpu, p[entry.id]));
    }
    const std::size_t flexible = p.size() - solve.forced_count;
    solve.flex.reserve(flexible);
    solve.flex_p_store.clear();
    solve.flex_p_store.reserve(flexible);
    if (!gpu.empty()) solve.gpu_peak.reserve(flexible);
    for (std::size_t i = 0; i < p.size(); ++i) {
      if (p[i] > lambda || q[i] > lambda) continue;
      solve.flex.push_back(static_cast<std::uint32_t>(i));
      solve.flex_p_store.push_back(p[i]);
      if (gpu.empty()) continue;
      peak = std::max(peak, push_least(gpu, q[i]));
      solve.gpu_peak.push_back(peak);
    }
    solve.flex_p = solve.flex_p_store.span();
  }
  const std::span<const double> flex_p = solve.flex_p;
  const std::size_t count = flex_p.size();
  solve.p_suffix.resize(count + 1);
  solve.p_suffix_max.resize(count + 1);
  solve.p_suffix[count] = 0.0;
  solve.p_suffix_max[count] = 0.0;
  for (std::size_t k = count; k-- > 0;) {
    solve.p_suffix[k] = solve.p_suffix[k + 1] + flex_p[k];
    solve.p_suffix_max[k] = std::max(solve.p_suffix_max[k + 1], flex_p[k]);
  }
  solve.gpu_forced_peak = gpu_forced_peak;
  solve.cpu_forced_peak = cpu_forced_peak;
  solve.passes_built = true;
}

/// Pass 3: the spilled candidates, in order, go to the CPUs, each onto the
/// least-loaded one; false when a push ends above cap. `cpu` holds the
/// loads the forced passes left; `spilled` and `largest` are the sum and
/// the maximum of `spill`.
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
bool cpu_pass(DualSolve& solve, double lambda, std::span<const double> cpu,
              std::span<const double> spill, double spilled, double largest) {
  if (spill.empty()) return true;
  if (cpu.empty()) return false;
  const double cap = 2.0 * lambda;

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
  for (const double p : spill) {
    if (tree.push(tree.least(), p) > cap) return false;
  }
  return true;
}

/// The greedy's passes at `lambda` for a solve with a negative or
/// non-finite time or load, where the plan's passes do not stand in for
/// them: one capped push at a time, as §6 states it. The caller has read
/// the interval's verdict and sums.
bool simulated_passes(DualSolve& solve, double lambda, std::size_t& split) {
  const std::span<const double> p = solve.p;
  const std::span<const double> q = solve.q;
  const std::size_t count = p.size();
  const double cap = 2.0 * lambda;
  const std::span<double> cpu = solve.cpu.span();
  const std::span<double> gpu = solve.gpu.span();
  std::copy(solve.cpu_init.begin(), solve.cpu_init.end(), cpu.begin());
  std::copy(solve.gpu_init.begin(), solve.gpu_init.end(), gpu.begin());

  // Pass 1: forced assignments, by decreasing duration for tighter
  // packing (the presorted subsets, filtered to this lambda).
  if (solve.forced_count > 0) {
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
    if (gpu.empty()) break;
    double& load = gpu[least_loaded(gpu)];
    if (load + q[i] > cap) break;
    load += q[i];
  }
  split = i;

  // Pass 3 takes the flexible candidates from the stop on.
  solve.flex_p_store.clear();
  double spilled = 0.0;
  double largest = 0.0;
  for (; i < count; ++i) {
    if (p[i] > lambda || q[i] > lambda) continue;
    solve.flex_p_store.push_back(p[i]);
    spilled += p[i];
    largest = std::max(largest, p[i]);
  }
  return cpu_pass(solve, lambda, cpu, solve.flex_p_store.span(), spilled,
                  largest);
}

/// One guess at `lambda` over a prepared solve. On success, `split` is where
/// the GPU pass stopped: flexible candidates before it go to the GPUs, the
/// rest to the CPUs (side_of).
///
/// The try reads the plan of lambda's interval, building it when lambda
/// lies outside the last one: the static verdict, the load-sum test, then,
/// on a finite solve, `peak > cap` for each forced pass, a binary search
/// for the GPU stop, which maps back to the candidate index at which the
/// capped pass 2 would stop, and the CPU pass over the recorded flexible
/// suffix.
bool dual_try_into(DualSolve& solve, double lambda, std::size_t& split) {
  assert(!(lambda < solve.floor) && "lambda below the solve's floor");
  if (!solve.covers(lambda)) plan_interval(solve, lambda);
  if (solve.plan_infeasible) return false;
  if (load_bound_exceeded(solve, lambda, solve.forced_gpu, solve.forced_cpu,
                          solve.flexible)) {
    return false;
  }
  if (!solve.finite) return simulated_passes(solve, lambda, split);
  if (!solve.passes_built) plan_passes(solve, lambda);
  const double cap = 2.0 * lambda;
  if (solve.gpu_forced_peak > cap || solve.cpu_forced_peak > cap) {
    return false;
  }
  const std::size_t flexible = solve.flex_p.size();
  std::size_t stop = 0;
  if (!solve.gpu_init.empty()) {
    const double* peak = solve.gpu_peak.begin();
    stop = static_cast<std::size_t>(
        std::upper_bound(peak, peak + flexible, cap) - peak);
  }
  split = stop == flexible        ? solve.p.size()
          : solve.forced_count == 0 ? stop
                                    : solve.flex[stop];
  return cpu_pass(solve, lambda, solve.cpu.span(),
                  solve.flex_p.subspan(stop), solve.p_suffix[stop],
                  solve.p_suffix_max[stop]);
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

/// Binary search for the smallest feasible lambda over a prepared solve.
/// `warm` seeds the upper-bound search. A try records only its verdict and
/// split; the sides are materialized once, from the pick (side_of). Every
/// tried lambda is >= lo: hi starts at or above it and only grows, lo only
/// rises, and mid lies in [lo, hi] — so lo is the solve's floor.
DualPick search_lambda(DualSolve& solve, double warm, int iters) {
  double lo = solve.floor;
  double hi = std::max({warm, lo, 1e-12});
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

/// Ascending (key, id) and (k0, k1, id): the orders sort_key_id and
/// sort_key2_id produce.
bool entry_less(const util::KeyId& a, const util::KeyId& b) {
  return a.key != b.key ? a.key < b.key : a.id < b.id;
}
bool entry_less(const util::KeyId2& a, const util::KeyId2& b) {
  if (a.k0 != b.k0) return a.k0 < b.k0;
  return a.k1 != b.k1 ? a.k1 < b.k1 : a.id < b.id;
}

/// Insert `entry` into the sorted `list` at its binary-searched slot.
template <typename Entry>
void insert_sorted(util::ArenaVector<Entry>& list, const Entry& entry) {
  list.insert(std::lower_bound(list.begin(), list.end(), entry,
                               [](const Entry& a, const Entry& b) {
                                 return entry_less(a, b);
                               }),
              entry);
}

/// Erase `entry`, which the sorted `list` holds, found by binary search.
template <typename Entry>
void erase_sorted(util::ArenaVector<Entry>& list, const Entry& entry) {
  Entry* const pos = std::lower_bound(list.begin(), list.end(), entry,
                                      [](const Entry& a, const Entry& b) {
                                        return entry_less(a, b);
                                      });
  assert(pos != list.end() && pos->id == entry.id);
  list.erase(pos);
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
                *std::min_element(lambdas.begin(), lambdas.end()));
  solve.sort_forced();
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
    solve.prepare(p, q, cpu_loads, gpu_loads, std::max(lb, 0.0));
    solve.sort_forced();
    pick = detail::search_lambda(solve, warm, options.bisection_iters);
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

  // The ready set in four orders, each kept sorted as tasks are released
  // and started, by binary-search insert and erase:
  //  - `ready`: (accel desc, id), the candidate order of the bisection;
  //  - `by_q`, `by_p`: (gpu time desc, accel desc, id) and (cpu time desc,
  //    accel desc, id). Filtered per solve, they are DualSolve's forced
  //    orders, whose index tie-break is the position in `ready`;
  //  - `by_priority`: (priority desc, ready_seq), or ready_seq alone under
  //    fifo: the dispatch order.
  // Each task becomes ready exactly once, so ready_seq is unique.
  util::ArenaVector<util::KeyId> ready(arena, tasks.size());
  util::ArenaVector<util::KeyId2> by_q(arena);
  util::ArenaVector<util::KeyId2> by_p(arena);
  util::ArenaVector<util::KeyId2> by_priority(arena);
  const std::span<std::uint64_t> ready_seq{
      arena.alloc<std::uint64_t>(tasks.size()), tasks.size()};
  std::uint64_t next_seq = 0;
  const auto ready_entry = [&](std::uint32_t id) {
    return util::KeyId{rho_key[id], id};
  };
  const auto q_entry = [&](std::uint32_t id) {
    return util::KeyId2{soa::descending_key(tasks[id].gpu_time), rho_key[id],
                        id};
  };
  const auto p_entry = [&](std::uint32_t id) {
    return util::KeyId2{soa::descending_key(tasks[id].cpu_time), rho_key[id],
                        id};
  };
  const auto priority_entry = [&](std::uint32_t id) {
    return util::KeyId2{
        options.fifo_order ? 0 : soa::descending_key(tasks[id].priority),
        ready_seq[id], id};
  };
  const auto make_ready = [&](TaskId task) {
    const auto id = static_cast<std::uint32_t>(task);
    ready_seq[id] = next_seq++;
    detail::insert_sorted(ready, ready_entry(id));
    detail::insert_sorted(by_q, q_entry(id));
    detail::insert_sorted(by_p, p_entry(id));
    detail::insert_sorted(by_priority, priority_entry(id));
  };
  const auto unready = [&](std::uint32_t id) {
    detail::erase_sorted(ready, ready_entry(id));
    detail::erase_sorted(by_q, q_entry(id));
    detail::erase_sorted(by_p, p_entry(id));
    detail::erase_sorted(by_priority, priority_entry(id));
  };
  for (TaskId id : tracker.initially_ready()) make_ready(id);

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
  // the bisection buffers and the per-type dispatch picks live in the arena
  // and are reused across every ready-set change.
  detail::DualSolve solve(arena);
  const std::span<double> cpu_loads =
      arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.cpus()));
  const std::span<double> gpu_loads =
      arena.alloc_zeroed<double>(static_cast<std::size_t>(platform.gpus()));
  util::ArenaVector<double> cand_p(arena, tasks.size());
  util::ArenaVector<double> cand_q(arena, tasks.size());
  const std::span<std::uint32_t> rho_pos{
      arena.alloc<std::uint32_t>(tasks.size()), tasks.size()};
  util::ArenaVector<std::uint32_t> picks[2] = {
      util::ArenaVector<std::uint32_t>(
          arena, static_cast<std::size_t>(platform.cpus())),
      util::ArenaVector<std::uint32_t>(
          arena, static_cast<std::size_t>(platform.gpus()))};
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
        rho_pos[entry.id] = static_cast<std::uint32_t>(cand_p.size());
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
        solve.prepare(cand_p.span(), cand_q.span(), cpu_loads, gpu_loads,
                      std::max(lb, 0.0));
        // The forced orders: by_q and by_p restricted to the candidates
        // some tried lambda can force, at their positions in `ready`.
        for (const util::KeyId2& entry : by_q) {
          const std::uint32_t i = rho_pos[entry.id];
          if (cand_p[i] > solve.floor) solve.to_gpu.push_back({entry.k0, i});
        }
        for (const util::KeyId2& entry : by_p) {
          const std::uint32_t i = rho_pos[entry.id];
          if (cand_q[i] > solve.floor) solve.to_cpu.push_back({entry.k0, i});
        }
        pick = detail::search_lambda(solve, warm_lambda,
                                     options.bisection_iters);
      }
      warm_lambda = pick.lambda;
      for (std::size_t i = 0; i < ready.size(); ++i) {
        assigned_side[ready[i].id] = detail::side_of(
            cand_p[i], cand_q[i], pick.lambda, i, pick.split);
      }
      ready_changed = false;
    }

    // The k-th idle worker of a type takes the k-th ready task of its side
    // in priority order; starts follow `idle`, so events keep its order.
    std::size_t wanted[2] = {0, 0};
    for (const WorkerId w : idle) {
      ++wanted[static_cast<std::size_t>(platform.type_of(w))];
    }
    picks[0].clear();
    picks[1].clear();
    for (const util::KeyId2& entry : by_priority) {
      const auto side = static_cast<std::size_t>(assigned_side[entry.id]);
      if (picks[side].size() < wanted[side]) picks[side].push_back(entry.id);
      if (picks[0].size() == wanted[0] && picks[1].size() == wanted[1]) break;
    }
    std::size_t next_of_type[2] = {0, 0};
    for (const WorkerId w : idle) {
      const Resource type = platform.type_of(w);
      const auto t = static_cast<std::size_t>(type);
      if (next_of_type[t] >= picks[t].size()) continue;
      const std::uint32_t id = picks[t][next_of_type[t]++];
      events.push(pool.start(w, static_cast<TaskId>(id), now,
                             Platform::time_on(tasks[id], type)),
                  w);
    }
    for (const auto& pick : picks) {
      for (const std::uint32_t id : pick) unready(id);
    }
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
        make_ready(released);
        ready_changed = true;
      }
    }
    dispatch();
  }
  obs::replay_schedule_to(schedule, platform, options.sink);
  return schedule;
}

}  // namespace hp
