#include "core/heteroprio.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "core/engine_parts.hpp"
#include "core/hp_engine.hpp"
#include "dag/ready_tracker.hpp"
#include "model/task_soa.hpp"
#include "obs/profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/worker_pool.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

namespace hp {

namespace detail {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Heap-free engine for the unobserved independent fault-free case (the
/// throughput path of BENCH_core.json). Preconditions checked by the caller:
/// no graph, no fault plan, no live sink or log, 0 < workers <= 63.
///
/// What makes it fast — and why each step is schedule-preserving:
///  - The ready queue is a presorted id array with two cursors; the sort key
///    is the packed (key0, key1) order, equivalent to the §2.2 comparator.
///  - The event heap is gone. Without a sink or a ReadyTracker, the only
///    observable effect of the pop order *within* one time batch is the set
///    of placements and counters, and those depend only on the batch as a
///    whole (the general loop also drains the full batch before
///    dispatching). A min-scan over per-worker finish times yields the same
///    batch at the same instant.
///  - Worker state is four flat arrays plus idle bitmasks; dispatch
///    snapshots the masks per pass, which reproduces
///    idle_workers_gpu_first() exactly (a victim freed mid-pass is served on
///    the next pass, not the current one).
///  - The running sets are not maintained incrementally: a spoliation
///    attempt gathers the <= 63 busy workers of the other type and sorts
///    them with the same total VictimLess order, giving the identical scan
///    sequence on demand.
void simulate_independent(const std::uint32_t* order, std::size_t n,
                          std::span<const Task> tasks,
                          std::span<const Task> actuals,
                          const Platform& platform,
                          const HeteroPrioOptions& options,
                          VictimOrder victim_order, Schedule& schedule,
                          HeteroPrioStats& stats, util::Arena& arena) {
  const int workers = platform.workers();
  const auto wcount = static_cast<std::size_t>(workers);
  const int cpus = platform.cpus();

  std::size_t q_gpu = 0;  ///< next GPU-end pop
  std::size_t q_cpu = n;  ///< next CPU-end pop is order[q_cpu - 1]

  // Permute the per-task scalars into queue order. The loop then reads task
  // data at two sequentially moving fronts instead of at random task ids —
  // the batched gather here eats the cache misses once, overlapped by
  // out-of-order execution, rather than one serialized miss per decision.
  double* qcpu = arena.alloc<double>(n);   ///< estimate p, queue order
  double* qgpu = arena.alloc<double>(n);   ///< estimate q, queue order
  double* qpri = arena.alloc<double>(n);   ///< priority, queue order
  constexpr std::size_t kGatherAhead = 16;
  for (std::size_t k = 0; k < n; ++k) {
    if (k + kGatherAhead < n) {
      __builtin_prefetch(&tasks[order[k + kGatherAhead]]);
    }
    const Task& t = tasks[order[k]];
    qcpu[k] = t.cpu_time;
    qgpu[k] = t.gpu_time;
    qpri[k] = t.priority;
  }
  const double* qacpu = qcpu;  ///< actual durations (alias when no noise)
  const double* qagpu = qgpu;
  if (actuals.data() != tasks.data()) {
    double* ac = arena.alloc<double>(n);
    double* ag = arena.alloc<double>(n);
    for (std::size_t k = 0; k < n; ++k) {
      if (k + kGatherAhead < n) {
        __builtin_prefetch(&actuals[order[k + kGatherAhead]]);
      }
      const Task& t = actuals[order[k]];
      ac[k] = t.cpu_time;
      ag[k] = t.gpu_time;
    }
    qacpu = ac;
    qagpu = ag;
  }
  // Placements in queue order, scattered into the Schedule at the end (the
  // by-task layout is the output format; writing it mid-loop is one cache
  // miss per completion).
  Placement* qplace = arena.alloc<Placement>(n);

  // Worker state, SoA. wfinish doubles as the event structure: +inf = idle;
  // it is padded to an even lane count for the SSE2 scans.
  const std::size_t wpad = (wcount + 1) & ~std::size_t{1};
  double* wfinish = arena.alloc<double>(wpad);
  double* wstart = arena.alloc<double>(wcount);
  double* wbelief = arena.alloc<double>(wcount);  ///< believed finish
  std::uint32_t* wqpos = arena.alloc<std::uint32_t>(wcount);  ///< queue pos
  for (std::size_t w = 0; w < wpad; ++w) wfinish[w] = kInf;

  const std::uint64_t all_mask =
      workers == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << workers) - 1;
  const std::uint64_t cpu_mask = (std::uint64_t{1} << cpus) - 1;
  const std::uint64_t gpu_mask = all_mask & ~cpu_mask;
  std::uint64_t idle_mask = all_mask;
  int busy_by_type[2] = {0, 0};

  const bool spoliation = options.enable_spoliation;
  const VictimLess victim_less{victim_order == VictimOrder::kPriority};
  VictimKey* victims = arena.alloc<VictimKey>(wcount);

  // Stale-event wakeups. The general loop pushes a wakeup at a spoliated
  // victim's old finish time; it is a no-op for the schedule but still runs
  // a dispatch at that instant, and an idle worker seen by that dispatch
  // counts a spoliation attempt or skip. To keep the counters bitwise
  // identical the fast engine remembers each victim's abandoned finish
  // time and wakes at it too.
  util::ArenaVector<double> phantom_wakeups(arena);

  std::size_t completed = 0;
  double now = 0.0;
  double first_idle = kInf;

  const auto start_task = [&](int w, std::uint32_t qpos) {
    const bool is_gpu = w >= cpus;
    const auto k = static_cast<std::size_t>(qpos);
    const auto wi = static_cast<std::size_t>(w);
    wfinish[wi] = now + (is_gpu ? qagpu[k] : qacpu[k]);
    wbelief[wi] = now + (is_gpu ? qgpu[k] : qcpu[k]);
    wstart[wi] = now;
    wqpos[wi] = qpos;
    idle_mask &= ~(std::uint64_t{1} << w);
    ++busy_by_type[is_gpu ? 1 : 0];
  };

  const auto try_spoliate = [&](int w) -> bool {
    const obs::PhaseScope scan_scope(options.metrics,
                                     obs::Phase::kSpoliationScan);
    ++stats.spoliation_attempts;
    const bool is_gpu = w >= cpus;
    // Gather the running set of the other resource and order it on demand;
    // VictimLess is total, so this equals the incremental set's scan order.
    std::uint64_t busy_other = ~idle_mask & (is_gpu ? cpu_mask : gpu_mask);
    std::size_t count = 0;
    while (busy_other != 0) {
      const int v = std::countr_zero(busy_other);
      busy_other &= busy_other - 1;
      const auto vi = static_cast<std::size_t>(v);
      const auto k = static_cast<std::size_t>(wqpos[vi]);
      victims[count++] = VictimKey{wbelief[vi], qpri[k],
                                   static_cast<TaskId>(order[k]), v};
    }
    std::sort(victims, victims + count, victim_less);
    for (std::size_t c = 0; c < count; ++c) {
      const VictimKey& key = victims[c];
      const auto vi = static_cast<std::size_t>(key.worker);
      const auto k = static_cast<std::size_t>(wqpos[vi]);
      const double dt = is_gpu ? qgpu[k] : qcpu[k];
      if (!strictly_better(now + dt, key.finish)) continue;
      // Abort the victim's execution; its progress is lost.
      schedule.add_aborted(key.task, key.worker, wstart[vi], now);
      phantom_wakeups.push_back(wfinish[vi]);
      wfinish[vi] = kInf;
      idle_mask |= std::uint64_t{1} << key.worker;
      --busy_by_type[key.worker >= cpus ? 1 : 0];
      ++stats.spoliations;
      start_task(w, wqpos[vi]);
      return true;
    }
    return false;
  };

  const auto dispatch_idle = [&] {
    bool acted = true;
    while (acted) {
      acted = false;
      // Snapshot per pass: workers idled by a spoliation during this pass
      // wait for the next one, exactly like idle_workers_gpu_first().
      const std::uint64_t snap_gpu = idle_mask & gpu_mask;
      const std::uint64_t snap_cpu = idle_mask & cpu_mask;
      for (int half = 0; half < 2; ++half) {
        std::uint64_t snap = half == 0 ? snap_gpu : snap_cpu;
        const bool is_gpu = half == 0;
        while (snap != 0) {
          const int w = std::countr_zero(snap);
          snap &= snap - 1;
          if ((idle_mask >> w & 1) == 0) continue;  // filled this pass
          if (q_gpu != q_cpu) {
            const std::uint32_t qpos = static_cast<std::uint32_t>(
                is_gpu ? q_gpu++ : --q_cpu);
            start_task(w, qpos);
            acted = true;
          } else {
            first_idle = std::min(first_idle, now);
            if (!spoliation) continue;
            if (busy_by_type[is_gpu ? 0 : 1] == 0) {
              ++stats.spoliation_skips;
            } else if (try_spoliate(w)) {
              acted = true;
            }
          }
        }
      }
    }
  };

  // Timed wrapper for the full dispatch passes. The one-idle fast path in
  // the loop below stays uninstrumented on purpose: it is the per-task
  // steady state of the >10M tasks/s engine, where even a sampled scope
  // entry would be a measurable fraction of the ~100ns budget.
  const auto dispatch_timed = [&] {
    const obs::PhaseScope dispatch_scope(options.metrics,
                                         obs::Phase::kDispatch);
    dispatch_idle();
  };

  dispatch_timed();

  while (completed < n) {
    // Next instant: min over the finish array (idle lanes are +inf) and the
    // stale wakeups. The batch at that instant replaces the event heap.
    double t = min_finish_time(wfinish, wpad);
    if (!phantom_wakeups.empty()) {
      for (const double d : phantom_wakeups) t = std::min(t, d);
    }
    assert(t != kInf && "no running worker but tasks incomplete");
    now = t;
    if (!phantom_wakeups.empty()) {
      for (std::size_t i = 0; i < phantom_wakeups.size();) {
        if (phantom_wakeups[i] == t) {
          phantom_wakeups[i] = phantom_wakeups.back();
          phantom_wakeups.pop_back();
        } else {
          ++i;
        }
      }
    }
    std::uint64_t done = equal_finish_mask(wfinish, wpad, t) & all_mask;
    while (done != 0) {
      const int w = std::countr_zero(done);
      done &= done - 1;
      const auto wi = static_cast<std::size_t>(w);
      qplace[wqpos[wi]] = Placement{w, wstart[wi], t};
      wfinish[wi] = kInf;
      idle_mask |= std::uint64_t{1} << w;
      --busy_by_type[w >= cpus ? 1 : 0];
      ++completed;
    }
    // One-idle fast path: with a single freed worker and a nonempty queue,
    // dispatch_idle reduces to exactly one start_task — the snapshot/pass
    // machinery only changes behavior when several workers are idle or the
    // queue is empty (spoliation).
    if (q_gpu != q_cpu && std::popcount(idle_mask) == 1) {
      const int w = std::countr_zero(idle_mask);
      start_task(w,
                 static_cast<std::uint32_t>(w >= cpus ? q_gpu++ : --q_cpu));
    } else {
      dispatch_timed();
    }
  }

  // One batched scatter back to the by-task output layout. The writes land
  // at random task ids; prefetching the target lines ahead overlaps the
  // misses the same way the forward gather did.
  for (std::size_t k = 0; k < n; ++k) {
    if (k + kGatherAhead < n) {
      __builtin_prefetch(&schedule.placement(
          static_cast<TaskId>(order[k + kGatherAhead])), 1);
    }
    const Placement& p = qplace[k];
    schedule.place(static_cast<TaskId>(order[k]), p.worker, p.start, p.end);
  }

  stats.first_idle_time = first_idle;
}

/// Sort wrapper over simulate_independent: build the ready order from the
/// prebuilt key elements (ids = task index from the fused build_sort_keys
/// pass), then run the simulation over it.
void run_independent_fast(const soa::SortKeys& sort_keys,
                          std::span<const Task> tasks,
                          std::span<const Task> actuals,
                          const Platform& platform,
                          const HeteroPrioOptions& options,
                          VictimOrder victim_order, Schedule& schedule,
                          HeteroPrioStats& stats, util::Arena& arena) {
  const std::size_t n = sort_keys.size;
  // Ready order: ids sorted GPU-end-first. Uniform priorities collapse the
  // pair key to key0 with a stable id tie-break.
  std::uint32_t* order = arena.alloc<std::uint32_t>(n);
  {
    const obs::PhaseScope sort_scope(options.metrics, obs::Phase::kSort);
    if (sort_keys.uniform_priority) {
      util::sort_key_id({sort_keys.key_id, n}, arena);
      for (std::size_t i = 0; i < n; ++i) order[i] = sort_keys.key_id[i].id;
    } else {
      util::sort_key2_id({sort_keys.key2_id, n}, arena);
      for (std::size_t i = 0; i < n; ++i) order[i] = sort_keys.key2_id[i].id;
    }
  }
  simulate_independent(order, n, tasks, actuals, platform, options,
                       victim_order, schedule, stats, arena);
}

/// Event of the loop's heap. Completions and deadlines are kept outside it
/// (the per-worker finish array and the deadline cursor) and merged with it
/// by sequence number; arrivals come from a cursor read before both.
struct HeapEvent {
  enum class Kind : std::uint8_t {
    kCrash,      ///< permanent loss of `worker`
    kSlowBegin,  ///< straggler window opens on `worker` (`value` = slowdown)
    kSlowEnd,    ///< straggler window closes on `worker`
    kRetry,      ///< backoff elapsed: `task` re-enters the ready queue
    kTick,       ///< rolling-horizon reschedule tick (`value` = index)
    kWakeup,     ///< old finish time of an aborted attempt (see abort_attempt)
  };
  Kind kind = Kind::kWakeup;
  WorkerId worker = -1;
  TaskId task = kInvalidTask;
  double value = 0.0;
};

// Per-task admission state of an online run (0: not arrived yet).
constexpr std::uint8_t kAdmitted = 1;
constexpr std::uint8_t kDeferred = 2;
constexpr std::uint8_t kRejected = 3;

// online::Mode, mirrored (online/runtime.cpp checks the values).
constexpr std::uint8_t kHealthy = 0;
constexpr std::uint8_t kDegraded = 1;
constexpr std::uint8_t kShedding = 2;

constexpr std::uint64_t kNoSeq = std::numeric_limits<std::uint64_t>::max();

/// Order-preserving integer image of a double, for the radix-sorted
/// deadline cursor, and its inverse.
std::uint64_t ordered_bits(double d) noexcept {
  const auto b = std::bit_cast<std::uint64_t>(d);
  return (b >> 63) != 0 ? ~b : b | (std::uint64_t{1} << 63);
}
double from_ordered_bits(std::uint64_t k) noexcept {
  return std::bit_cast<double>((k >> 63) != 0 ? k & ~(std::uint64_t{1} << 63)
                                              : ~k);
}

/// Entry `id` of an id-indexed plan span; 0 for ids beyond it (a task the
/// plan does not cover arrives at t=0 with no deadline).
double plan_entry(std::span<const double> plan, TaskId id) noexcept {
  const auto i = static_cast<std::size_t>(id);
  return i < plan.size() ? plan[i] : 0.0;
}

/// Task ids 0..n-1 in (arrival time, id) order, in the arena. Plan entries
/// beyond n are ignored. online::ArrivalPlan::generate draws plans monotone
/// in id, for which an O(n) check keeps the identity order; others are
/// sorted.
std::span<const TaskId> arrival_order(std::span<const double> arrival,
                                      std::size_t n, util::Arena& arena) {
  TaskId* order = arena.alloc<TaskId>(n);
  std::iota(order, order + n, TaskId{0});
  if (arrival.empty()) return {order, n};
  const auto by_arrival = [arrival](TaskId a, TaskId b) {
    const double ta = plan_entry(arrival, a);
    const double tb = plan_entry(arrival, b);
    return ta != tb ? ta < tb : a < b;
  };
  if (!std::is_sorted(order, order + n, by_arrival)) {
    std::sort(order, order + n, by_arrival);
  }
  return {order, n};
}

}  // namespace

Schedule run_heteroprio(std::span<const Task> tasks, const TaskGraph* graph,
                        const Platform& platform,
                        const HeteroPrioOptions& options,
                        HeteroPrioStats* stats, const OnlineHooks* online,
                        OnlineCounters* counters, const CommHooks* comm) {
  assert(graph == nullptr || graph->tasks().size() == tasks.size());
  assert(comm == nullptr ||
         (graph != nullptr && comm->payloads.size() == tasks.size()));
  // Estimated times drive every decision; actual times drive the clock.
  const std::span<const Task> actuals =
      options.actual_times.empty() ? tasks : options.actual_times;
  assert(actuals.size() == tasks.size());

  const std::size_t n = tasks.size();
  Schedule schedule(n);
  HeteroPrioStats local_stats;
  local_stats.first_idle_time = kInf;
  OnlineCounters oc;

  // All per-run scratch (SoA arrays, ready keys, running sets, worker
  // state) lives on the per-thread arena and is released when this scope
  // unwinds — see docs/perf.md "Arena lifetime".
  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope arena_scope(arena);

  // Self-profiling. Timings never feed back into decisions, so the
  // schedule stays bitwise identical with a collector attached — and
  // attaching one does not disqualify the independent fast path below.
  obs::MetricsCollector* const metrics = options.metrics;
  const obs::PhaseScope engine_scope(metrics, obs::Phase::kEngine);

  const obs::Probe probe(options.sink);

  // Fault injection is entirely gated on `faulty`: with no plan (or an
  // empty one) not a single extra event is pushed, no extra state is
  // allocated and every branch below folds to its pre-fault form, keeping
  // the run bitwise identical — the regression-tested no-op guarantee.
  const fault::FaultPlan* plan = options.faults;
  const bool faulty = plan != nullptr && !plan->empty();

  VictimOrder victim_order = options.victim_order;
  if (victim_order == VictimOrder::kAuto) {
    victim_order = graph == nullptr ? VictimOrder::kCompletionTime
                                    : VictimOrder::kPriority;
  }

  // Unobserved independent fault-free batch runs — the >10M tasks/s
  // throughput path — take the heap-free bitmask engine. Everything it
  // skips (event queue, probes, tracker, incremental running sets) is
  // unobservable under these preconditions, so the schedule and counters
  // are bitwise identical to the loop below (pinned by test_soa_regression).
  if (online == nullptr && graph == nullptr && !faulty &&
      options.sink == nullptr && platform.workers() > 0 &&
      platform.workers() <= 63) {
    // Keys-only build: this path gathers durations from the AoS records in
    // queue order and never reads the flat SoA arrays.
    const soa::SortKeys sort_keys = [&] {
      const obs::PhaseScope key_scope(metrics, obs::Phase::kKeyBuild);
      return soa::build_sort_keys(tasks, arena);
    }();
    run_independent_fast(sort_keys, tasks, actuals, platform, options,
                         victim_order, schedule, local_stats, arena);
    if (stats != nullptr) {
      if (!std::isfinite(local_stats.first_idle_time)) {
        local_stats.first_idle_time = schedule.makespan();
      }
      *stats = local_stats;
    }
    return schedule;
  }

  const OnlineHooks hooks = online != nullptr ? *online : OnlineHooks{};

  // Batched split of the AoS records into flat arrays + packed ready keys.
  const soa::TaskSoA soa = [&] {
    const obs::PhaseScope key_scope(metrics, obs::Phase::kKeyBuild);
    return soa::build_task_soa(tasks, arena);
  }();

  // Actual durations as flat arrays for the clock.
  std::span<const double> act_cpu = soa.cpu;
  std::span<const double> act_gpu = soa.gpu;
  if (!options.actual_times.empty()) {
    double* ac = arena.alloc<double>(n);
    double* ag = arena.alloc<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      ac[i] = actuals[i].cpu_time;
      ag[i] = actuals[i].gpu_time;
    }
    act_cpu = {ac, n};
    act_gpu = {ag, n};
  }

  sim::WorkerPool pool(platform);
  pool.attach_sink(options.sink);
  sim::EventQueue<HeapEvent> events;

  // Completion source: the finish time of each worker's running attempt
  // (+inf when idle or crashed), padded with +inf to an even lane count of
  // at least two for the SSE2 scans, and the sequence number its start
  // claimed from `events`, which orders it against heap events and
  // deadlines of the same instant.
  const auto wcount = static_cast<std::size_t>(platform.workers());
  const std::size_t wpad =
      std::max<std::size_t>(2, (wcount + 1) & ~std::size_t{1});
  double* finish = arena.alloc<double>(wpad);
  std::fill(finish, finish + wpad, kInf);
  std::uint64_t* finish_seq = arena.alloc<std::uint64_t>(wpad);
  WorkerId* due = arena.alloc<WorkerId>(wpad);  ///< one instant's batch
  IdleSet idle(platform.workers(), platform.cpus(), arena);

  // Per-worker flag: the attempt currently running on the worker will abort
  // at its (already shortened) completion. Per-task failed-attempt counts
  // drive the retry budget. Both exist only on faulty runs.
  std::span<char> pending_fail;
  std::span<int> failed_attempts;
  if (faulty) {
    pending_fail = arena.alloc_zeroed<char>(wcount);
    failed_attempts = arena.alloc_zeroed<int>(n);
    for (const fault::CrashEvent& c : plan->crashes()) {
      if (c.worker < 0 || c.worker >= platform.workers()) continue;
      events.push(c.time, HeapEvent{HeapEvent::Kind::kCrash, c.worker,
                                    kInvalidTask, 0.0});
    }
    for (const fault::StragglerWindow& win : plan->stragglers()) {
      if (win.worker < 0 || win.worker >= platform.workers()) continue;
      events.push(win.begin, HeapEvent{HeapEvent::Kind::kSlowBegin,
                                       win.worker, kInvalidTask, win.slowdown});
      events.push(win.end, HeapEvent{HeapEvent::Kind::kSlowEnd, win.worker,
                                     kInvalidTask, 0.0});
    }
  }

  const bool ticks_on = hooks.reschedule_period > 0.0;
  if (ticks_on) {
    events.push(hooks.reschedule_period,
                HeapEvent{HeapEvent::Kind::kTick, -1, kInvalidTask, 0.0});
  }

  ReadyQueue queue(soa, arena);
  // Keys made ready at the current instant, inserted in one batch before
  // the next dispatch (nothing reads the queue while an instant drains).
  util::ArenaVector<util::KeyId2> pending(arena);

  // Arrivals (online runs) are a cursor over task ids in (arrival time, id)
  // order, read in front of everything else: at each instant every arrival
  // drains before any event of that instant, same-instant arrivals in id
  // order. With everything at t=0 this reproduces the batch run's id-order
  // ready set exactly.
  const std::span<const TaskId> order =
      online != nullptr ? arrival_order(hooks.arrival, n, arena)
                        : std::span<const TaskId>{};
  std::size_t next_arrival = 0;  ///< cursor position in `order`
  // +inf once the cursor is exhausted.
  const auto arrival_time = [&]() -> double {
    if (next_arrival == order.size()) return kInf;
    return plan_entry(hooks.arrival, order[next_arrival]);
  };

  // Deadlines are a cursor too, sorted once by (arrival + relative
  // deadline, arrival position). A task claims its deadline's sequence
  // number when it arrives, in arrival order, so the cursor order is the
  // (time, seq) order a heap would pop; and no deadline comes due before
  // its task arrived, so every number is claimed by the time it is read.
  std::span<util::KeyId> deadlines;       ///< {ordered_bits(time), position}
  std::span<std::uint64_t> deadline_seq;  ///< by arrival position
  std::size_t next_deadline = 0;
  if (!hooks.rel_deadline.empty()) {
    util::KeyId* cursor = arena.alloc<util::KeyId>(n);
    std::size_t count = 0;
    for (std::size_t pos = 0; pos < n; ++pos) {
      const TaskId id = order[pos];
      const double rel = plan_entry(hooks.rel_deadline, id);
      if (rel > 0.0) {
        const double due = plan_entry(hooks.arrival, id) + rel;
        cursor[count++] =
            util::KeyId{ordered_bits(due), static_cast<std::uint32_t>(pos)};
      }
    }
    if (count > 0) {
      deadlines = {cursor, count};
      util::sort_key_id(deadlines, arena);
      deadline_seq = arena.alloc_zeroed<std::uint64_t>(n);
    }
  }
  const auto deadline_time = [&]() -> double {
    if (next_deadline == deadlines.size()) return kInf;
    return from_ordered_bits(deadlines[next_deadline].key);
  };

  // Admission / readiness state of an online run. `released` covers
  // dependencies; a task enters the ready structure once it is both
  // released and admitted.
  std::span<std::uint8_t> state;
  if (online != nullptr) state = arena.alloc_zeroed<std::uint8_t>(n);
  std::span<char> released;
  std::optional<ReadyTracker> tracker;
  if (graph != nullptr) {
    tracker.emplace(*graph);
    if (online != nullptr) {
      released = arena.alloc_zeroed<char>(n);
      for (TaskId id : tracker->initially_ready()) {
        released[static_cast<std::size_t>(id)] = 1;
      }
    }
  }
  // Per-task respawn count drives the exponential backoff of repeated
  // straggler rescues; allocated only when detection is on.
  const bool respawn_on = hooks.straggler_factor > 1.0 && ticks_on;
  std::span<int> respawn_count;
  if (respawn_on) respawn_count = arena.alloc_zeroed<int>(n);

  // Incremental per-resource running sets in spoliation-scan order, updated
  // on start/release in O(log W) — replaces collecting and sorting the busy
  // workers of the other type on every spoliation attempt.
  const VictimLess victim_less{victim_order == VictimOrder::kPriority};
  RunningSet running_set[2] = {
      RunningSet(victim_less, static_cast<std::size_t>(platform.cpus()),
                 arena),
      RunningSet(victim_less, static_cast<std::size_t>(platform.gpus()),
                 arena)};
  const std::span<VictimKey> victim_key =
      arena.alloc_zeroed<VictimKey>(wcount);

  // Admission control. Hysteresis: enter shedding at >= high, leave at
  // <= low.
  const bool admission_on = hooks.watermark_high > 0;
  std::vector<TaskId> deferred_fifo;
  std::size_t deferred_head = 0;

  std::size_t completed = 0;
  double now = 0.0;
  std::uint8_t mode = kHealthy;
  std::size_t batch_inserts = 0;  ///< frontier inserts since the last replan

  auto to_mode = [&](std::uint8_t m) {
    if (m == mode) return;
    mode = m;
    ++oc.mode_changes;
    probe.mode_change(now, m);
  };
  // First incident (fault, miss, shed, respawn) of an online run
  // permanently leaves healthy. A batch run has no modes.
  auto note_incident = [&] {
    if (online != nullptr && mode == kHealthy) to_mode(kDegraded);
  };

  auto insert_ready = [&](TaskId id) {
    pending.push_back(queue.key_of(id));
    probe.ready(now, id);
    ++batch_inserts;
  };
  auto backlog = [&] { return queue.size() + pending.size(); };

  auto flush_replan = [&] {
    if (online == nullptr || batch_inserts == 0) return;
    ++oc.replans;
    probe.replan(now, batch_inserts);
    batch_inserts = 0;
  };

  auto admit = [&](TaskId id) {
    state[static_cast<std::size_t>(id)] = kAdmitted;
    ++oc.tasks_admitted;
    if (graph == nullptr || released[static_cast<std::size_t>(id)] != 0) {
      insert_ready(id);
    }
  };

  // An online DAG task behind a rejected or abandoned ancestor is never
  // released. Once it has arrived it is settled: it ends the run
  // unfinished.
  std::span<char> blocked;
  std::size_t blocked_arrived = 0;
  std::vector<TaskId> block_stack;
  auto block_descendants = [&](TaskId id) {
    if (blocked.empty()) blocked = arena.alloc_zeroed<char>(n);
    block_stack.assign(1, id);
    while (!block_stack.empty()) {
      const TaskId t = block_stack.back();
      block_stack.pop_back();
      for (TaskId succ : graph->successors(t)) {
        const auto i = static_cast<std::size_t>(succ);
        if (blocked[i] != 0) continue;
        blocked[i] = 1;
        if (state[i] == kAdmitted || state[i] == kDeferred) ++blocked_arrived;
        block_stack.push_back(succ);
      }
    }
  };

  // A run ends once every task is completed, rejected, abandoned or blocked
  // behind one, or when nothing is left to happen; a crash or window after
  // that instant is not counted. Only online runs reject tasks, and only
  // online DAG runs mark the descendants of an abandoned task as blocked.
  auto unsettled = [&] {
    return completed + oc.tasks_rejected +
               static_cast<std::size_t>(
                   local_stats.recovery.tasks_abandoned) +
               blocked_arrived <
           n;
  };

  auto handle_arrival = [&](std::size_t pos) {
    const TaskId id = order[pos];
    ++oc.tasks_arrived;
    probe.task_arrival(now, id);
    if (plan_entry(hooks.rel_deadline, id) > 0.0) {
      deadline_seq[pos] = events.claim_seq();
    }
    // Load shedding: counted, never silently dropped. Retries and crash
    // re-enqueues of already-admitted tasks bypass this gate entirely.
    const bool shed = admission_on && mode == kShedding;
    if (shed && hooks.reject_when_shedding) {
      state[static_cast<std::size_t>(id)] = kRejected;
      ++oc.tasks_rejected;
      probe.task_shed(now, id);
      if (graph != nullptr) block_descendants(id);
      return;
    }
    if (!blocked.empty() && blocked[static_cast<std::size_t>(id)] != 0) {
      ++blocked_arrived;
    }
    if (shed) {
      state[static_cast<std::size_t>(id)] = kDeferred;
      ++oc.tasks_deferred;
      deferred_fifo.push_back(id);
      probe.task_deferred(now, id);
      return;
    }
    admit(id);
  };

  // Observation only: a missed deadline never changes a decision.
  auto handle_deadline = [&] {
    const TaskId id = order[deadlines[next_deadline++].id];
    if (schedule.placement(id).placed()) return;  // finished in time
    ++oc.deadline_misses;
    probe.deadline_miss(now, id);
    note_incident();
  };

  // Input staging of a communication-aware run: the delay before `id` can
  // run on `w` (its predecessors are all placed by then).
  double transfer_total = 0.0;
  auto stage_delay = [&](TaskId id, WorkerId w) {
    double delay = 0.0;
    for (TaskId pred : graph->predecessors(id)) {
      const Placement& pp = schedule.placement(pred);
      delay = std::max(delay, comm->model.transfer_time(
                                  platform, pp.worker, w,
                                  comm->payloads[static_cast<std::size_t>(
                                      pred)]));
    }
    return delay;
  };
  const std::size_t locality_window =
      comm != nullptr
          ? static_cast<std::size_t>(std::max(1, comm->locality_window))
          : 1;

  auto start_task = [&](WorkerId w, TaskId id) {
    const Resource res = platform.type_of(w);
    const auto i = static_cast<std::size_t>(id);
    const auto wi = static_cast<std::size_t>(w);
    double dt = res == Resource::kCpu ? act_cpu[i] : act_gpu[i];
    double believed_dt = soa.time_on(id, res);
    if (comm != nullptr) {
      const double stage = stage_delay(id, w);
      transfer_total += stage;
      dt = stage + dt;
      believed_dt = stage + believed_dt;
    }
    if (faulty) {
      // The injected reality: a pre-drawn failure truncates the attempt's
      // work, and straggler windows stretch wall-clock time around it. The
      // believed VictimKey below still uses the plain estimate — the
      // scheduler never reads the plan.
      const fault::AttemptOutcome outcome =
          plan->attempt_outcome(id, failed_attempts[i]);
      if (outcome.fails) {
        dt *= outcome.fail_fraction;
        pending_fail[wi] = 1;
      }
      dt = plan->finish_time(w, now, dt) - now;
    }
    finish[wi] = pool.start(w, id, now, dt);
    finish_seq[wi] = events.claim_seq();
    idle.erase(w);
    const VictimKey key{now + believed_dt, soa.priority[i], id, w};
    victim_key[wi] = key;
    running_set[static_cast<std::size_t>(res)].insert(key);
    probe.start(now, id, w);
  };

  auto release_worker = [&](WorkerId w) -> sim::Running {
    const auto wi = static_cast<std::size_t>(w);
    running_set[static_cast<std::size_t>(platform.type_of(w))].erase(
        victim_key[wi]);
    if (faulty) pending_fail[wi] = 0;
    finish[wi] = kInf;
    idle.insert(w);
    return pool.release_at(w, now);
  };

  // Abort the attempt running on `w` (spoliation, crash or respawn); its
  // progress is lost. Its old finish time still opens an instant whose
  // dispatch pass counts spoliation attempts and skips, so a wakeup is
  // pushed there.
  auto abort_attempt = [&](WorkerId w) -> sim::Running {
    events.push(finish[static_cast<std::size_t>(w)], HeapEvent{});
    const sim::Running aborted = release_worker(w);
    schedule.add_aborted(aborted.task, w, aborted.start, now);
    probe.abort(now, aborted.task, w);
    return aborted;
  };

  // Attempt a spoliation by idle worker `w`: walk the running set of the
  // other resource type in scan order and steal the first task `w` would
  // finish strictly earlier. Returns true if a task was stolen.
  auto try_spoliate = [&](WorkerId w) -> bool {
    const obs::PhaseScope scan_scope(metrics, obs::Phase::kSpoliationScan);
    ++local_stats.spoliation_attempts;
    probe.spoliate_attempt(now, w);
    const Resource mine = platform.type_of(w);
    const auto& candidates = running_set[static_cast<std::size_t>(other(mine))];
    for (const VictimKey& key : candidates) {
      const double dt = soa.time_on(key.task, mine);
      double believed_finish = key.finish;
      if (faulty && believed_finish <= now) {
        // The victim is overdue — a straggler window stretched it past its
        // believed finish. Re-believe from the estimate as if it restarted
        // now, so a healthy worker can still rescue the task; otherwise
        // "candidate < past instant" never holds and stragglers hold their
        // work hostage forever.
        believed_finish = now + soa.time_on(key.task, other(mine));
      }
      if (!strictly_better(now + dt, believed_finish)) continue;
      // A staging delay is never negative, so a victim the thief cannot beat
      // without it cannot be beaten with it: the delay is priced only for a
      // victim that passes the plain test, off the loop's common path.
      if (comm != nullptr &&
          !strictly_better(now + (stage_delay(key.task, w) + dt),
                           believed_finish)) {
        continue;
      }
      const WorkerId victim = key.worker;
      const sim::Running aborted = abort_attempt(victim);
      ++local_stats.spoliations;
      probe.spoliate_commit(now, aborted.task, w, victim);
      start_task(w, aborted.task);
      return true;
    }
    return false;
  };

  // Offer work to every idle worker (GPUs first) until a full pass changes
  // nothing. Spoliation can idle a worker of the other type mid-pass, hence
  // the outer repeat. After each pop, the data start_task reads of the
  // task next in line at that end is prefetched: the ids are random, and
  // without the prefetch each start waits on those misses in turn.
  //
  // With a locality window, the worker takes the cheapest-to-stage task of
  // the window nearest its end instead.
  auto start_next = [&](WorkerId w) {
    const bool gpu = platform.type_of(w) == Resource::kGpu;
    if (locality_window > 1) {
      start_task(w, queue.pop_least(gpu, locality_window, [&](TaskId id) {
        return stage_delay(id, w);
      }));
      return;
    }
    const TaskId id = gpu ? queue.pop_gpu_end() : queue.pop_cpu_end();
    if (!queue.empty()) {
      const auto next = static_cast<std::size_t>(gpu ? queue.gpu_end()
                                                     : queue.cpu_end());
      __builtin_prefetch(gpu ? &act_gpu[next] : &act_cpu[next]);
      __builtin_prefetch(gpu ? &soa.gpu[next] : &soa.cpu[next]);
      __builtin_prefetch(&soa.priority[next]);
    }
    start_task(w, id);
  };
  auto dispatch_idle = [&] {
    // One idle worker and a nonempty queue: the first pass starts one task
    // and the second finds nobody idle.
    if (idle.count() == 1 && !queue.empty()) {
      start_next(idle.first());
      return;
    }
    bool acted = true;
    while (acted) {
      acted = false;
      idle.for_each_gpu_first([&](WorkerId w) {
        const Resource res = platform.type_of(w);
        if (!queue.empty()) {
          start_next(w);
          acted = true;
          return;
        }
        local_stats.first_idle_time =
            std::min(local_stats.first_idle_time, now);
        if (!options.enable_spoliation) return;
        // No victim can exist while the other resource is fully idle; skip
        // the scan outright (the common case once the queue drains).
        if (pool.busy_count(other(res)) == 0) {
          ++local_stats.spoliation_skips;
          probe.spoliate_skip(now, w);
        } else if (try_spoliate(w)) {
          acted = true;
        }
      });
    }
  };

  // Queue-depth samples bracket every dispatch: the pre-sample captures the
  // peak after a ready burst, the post-sample the steady-state backlog.
  auto dispatch_and_sample = [&] {
    queue.insert_batch(pending.span(), arena);
    pending.clear();
    probe.queue_depth(now, queue.size());
    {
      const obs::PhaseScope dispatch_scope(metrics, obs::Phase::kDispatch);
      dispatch_idle();
    }
    probe.queue_depth(now, queue.size());
  };

  // Post-dispatch mode maintenance. Returns true when parked tasks were
  // re-admitted (they need another dispatch pass at this instant).
  auto update_mode = [&]() -> bool {
    if (!admission_on) return false;
    if (mode != kShedding && backlog() >= hooks.watermark_high) {
      note_incident();  // healthy crosses through degraded, two transitions
      to_mode(kShedding);
    } else if (mode == kShedding && backlog() <= hooks.watermark_low) {
      to_mode(kDegraded);  // hysteresis exit; healthy is gone for good
    }
    bool readmitted = false;
    if (mode != kShedding) {
      while (deferred_head < deferred_fifo.size() &&
             backlog() < hooks.watermark_high) {
        admit(deferred_fifo[deferred_head++]);
        readmitted = true;
      }
      if (backlog() >= hooks.watermark_high &&
          deferred_head < deferred_fifo.size()) {
        to_mode(kShedding);  // refilled to the brim with tasks left over
      }
    }
    return readmitted;
  };

  auto dispatch_until_settled = [&] {
    flush_replan();
    do {
      dispatch_and_sample();
    } while (update_mode());
    flush_replan();
  };

  // The completion of worker `w`'s attempt at `now`. On a fault-free run
  // every completion places the task; on a faulty run the attempt may
  // instead be an injected failure — the progress is recorded as an aborted
  // segment and the task retried (after the plan's backoff) until its
  // attempt budget runs out.
  auto handle_completion = [&](WorkerId w) {
    const bool attempt_failed =
        faulty && pending_fail[static_cast<std::size_t>(w)] != 0;
    const sim::Running done = release_worker(w);
    if (attempt_failed) {
      schedule.add_aborted(done.task, w, done.start, now);
      const int failures =
          ++failed_attempts[static_cast<std::size_t>(done.task)];
      ++local_stats.recovery.task_failures;
      probe.task_fail(now, done.task, w, failures - 1);
      note_incident();
      if (failures >= plan->max_attempts()) {
        ++local_stats.recovery.tasks_abandoned;  // the task stays unfinished
        if (online != nullptr && graph != nullptr) {
          block_descendants(done.task);
        }
        return;
      }
      ++local_stats.recovery.task_retries;
      const double delay = plan->backoff_delay(failures);
      if (delay > 0.0) {
        events.push(now + delay, HeapEvent{HeapEvent::Kind::kRetry, -1,
                                           done.task, 0.0});
      } else {
        probe.task_retry(now, done.task, failures);
        insert_ready(done.task);
      }
      return;
    }
    schedule.place(done.task, w, done.start, done.finish);
    ++completed;
    probe.complete(now, done.task, w);
    if (tracker.has_value()) {
      const obs::PhaseScope ready_scope(metrics, obs::Phase::kReadyUpdate);
      for (TaskId rel : tracker->complete(done.task)) {
        // Online successors enter the frontier only once admitted; deferred
        // or unarrived tasks wait for their admission.
        if (online != nullptr) {
          released[static_cast<std::size_t>(rel)] = 1;
          if (state[static_cast<std::size_t>(rel)] != kAdmitted) continue;
        }
        insert_ready(rel);
      }
    }
  };

  // Permanent loss of a worker: abort whatever it runs (re-enqueued with no
  // charge against the task's retry budget — the task did nothing wrong,
  // and as an admitted task it bypasses admission) and remove the worker
  // from the pool, so dispatch and spoliation see only the surviving
  // platform from here on.
  auto handle_crash = [&](WorkerId w) {
    if (pool.failed(w)) return;
    ++local_stats.recovery.worker_crashes;
    note_incident();
    if (pool.busy(w)) {
      insert_ready(abort_attempt(w).task);
      ++local_stats.recovery.crash_requeues;
    }
    pool.mark_failed(w);
    idle.erase(w);
    probe.worker_crash(now, w);
  };

  // Straggler scan at a reschedule tick: abort any attempt overdue by more
  // than straggler_factor x its estimate and re-enqueue the task, under the
  // respawn budget, with the fault layer's exponential backoff when one is
  // configured. Never charges failed_attempts — the outcome draws of the
  // fault plan must not shift.
  auto handle_tick = [&](double index) {
    ++oc.reschedule_ticks;
    probe.reschedule_tick(now, static_cast<std::size_t>(index));
    if (respawn_on) {
      for (WorkerId w = 0; w < platform.workers(); ++w) {
        if (hooks.respawn_budget > 0 &&
            local_stats.recovery.straggler_respawns >= hooks.respawn_budget) {
          break;
        }
        if (!pool.busy(w)) continue;
        const sim::Running& run = pool.running(w);
        const double est = soa.time_on(run.task, platform.type_of(w));
        if (now <= run.start + hooks.straggler_factor * est) continue;
        const TaskId task = abort_attempt(w).task;
        const int idx = ++local_stats.recovery.straggler_respawns;
        probe.straggler_respawn(now, task, w, idx - 1);
        note_incident();
        const int count = ++respawn_count[static_cast<std::size_t>(task)];
        const double delay = faulty ? plan->backoff_delay(count) : 0.0;
        if (delay > 0.0) {
          events.push(now + delay,
                      HeapEvent{HeapEvent::Kind::kRetry, -1, task, 0.0});
        } else {
          insert_ready(task);
        }
      }
    }
    if (pool.alive_count() > 0 && unsettled()) {
      events.push(now + hooks.reschedule_period,
                  HeapEvent{HeapEvent::Kind::kTick, -1, kInvalidTask,
                            index + 1.0});
    }
  };

  auto handle_event = [&](const HeapEvent& ev) {
    switch (ev.kind) {
      case HeapEvent::Kind::kCrash:
        handle_crash(ev.worker);
        break;
      case HeapEvent::Kind::kSlowBegin:
        ++local_stats.recovery.straggler_windows;
        note_incident();
        probe.worker_slow_begin(now, ev.worker, ev.value);
        break;
      case HeapEvent::Kind::kSlowEnd:
        probe.worker_slow_end(now, ev.worker);
        break;
      case HeapEvent::Kind::kRetry:
        probe.task_retry(
            now, ev.task,
            faulty ? failed_attempts[static_cast<std::size_t>(ev.task)] : 0);
        insert_ready(ev.task);
        break;
      case HeapEvent::Kind::kTick:
        handle_tick(ev.value);
        break;
      case HeapEvent::Kind::kWakeup:
        break;
    }
  };

  // The events of instant `t` after its arrivals, in (time, seq) order
  // across the three sources; `first_finish` is the finish array's minimum.
  // Handlers never start an attempt, so no completion joins the batch; a
  // crash may abort one in it, which leaves its lane at +inf.
  auto drain_instant = [&](double t, double first_finish) {
    std::size_t due_count = 0;
    if (first_finish == t) {
      for (std::size_t base = 0; base < wpad; base += 64) {
        std::uint64_t mask = equal_finish_mask(
            finish + base, std::min<std::size_t>(64, wpad - base), t);
        while (mask != 0) {
          due[due_count++] = static_cast<WorkerId>(base) +
                             static_cast<WorkerId>(std::countr_zero(mask));
          mask &= mask - 1;
        }
      }
    }
    if (due_count > 1) {
      std::sort(due, due + due_count, [finish_seq](WorkerId a, WorkerId b) {
        return finish_seq[static_cast<std::size_t>(a)] <
               finish_seq[static_cast<std::size_t>(b)];
      });
    }
    std::size_t next_due = 0;
    for (;;) {
      while (next_due < due_count &&
             finish[static_cast<std::size_t>(due[next_due])] != t) {
        ++next_due;
      }
      const std::uint64_t c_seq =
          next_due < due_count
              ? finish_seq[static_cast<std::size_t>(due[next_due])]
              : kNoSeq;
      const std::uint64_t d_seq =
          deadline_time() == t
              ? deadline_seq[deadlines[next_deadline].id]
              : kNoSeq;
      const std::uint64_t h_seq =
          !events.empty() && events.top().time == t ? events.top().seq
                                                    : kNoSeq;
      if (c_seq < d_seq && c_seq < h_seq) {
        handle_completion(due[next_due++]);
      } else if (d_seq < h_seq) {
        handle_deadline();
      } else if (h_seq != kNoSeq) {
        handle_event(events.pop().payload);
      } else {
        break;
      }
    }
  };

  auto drain_arrivals_at = [&](double t) {
    for (; arrival_time() == t; ++next_arrival) handle_arrival(next_arrival);
  };

  if (online == nullptr) {
    // Batch: every task without predecessors is ready at t=0.
    if (tracker.has_value()) {
      const obs::PhaseScope ready_scope(metrics, obs::Phase::kReadyUpdate);
      for (TaskId id : tracker->initially_ready()) insert_ready(id);
    } else {
      {
        const obs::PhaseScope sort_scope(metrics, obs::Phase::kSort);
        queue.presort_all(n, arena);
      }
      if (probe) {
        for (std::size_t i = 0; i < n; ++i) {
          probe.ready(0.0, static_cast<TaskId>(i));
        }
      }
    }
  } else if (!events.time_if_before(0.0).has_value()) {
    // Drain the t=0 arrival batch before the initial dispatch, unless an
    // event comes earlier: with every arrival at t=0 the ready structure
    // then holds the batch run's keys, and the rest of the run is the
    // batch run's (the bitwise-identity anchor).
    drain_arrivals_at(0.0);
  }
  dispatch_until_settled();

  while (unsettled()) {
    const double first_finish = min_finish_time(finish, wpad);
    const double t =
        std::min({arrival_time(), first_finish, deadline_time(),
                  events.empty() ? kInf : events.top().time});
    if (!(t < kInf)) {
      // Only reachable when faults removed the means to finish (or the
      // platform had no workers to begin with).
      assert((faulty || platform.workers() == 0) &&
             "deadlock: nothing left to happen but tasks unsettled");
      break;
    }
    now = t;
    drain_arrivals_at(t);
    drain_instant(t, first_finish);
    dispatch_until_settled();
  }

  // Deadlines that outlive the last placement still count: a shed or
  // abandoned task that never ran misses its deadline even though the run
  // is already over.
  while (next_deadline < deadlines.size()) {
    now = std::max(now, deadline_time());
    handle_deadline();
  }

  if (completed + oc.tasks_rejected < n) {
    local_stats.recovery.tasks_unfinished =
        static_cast<int>(n - completed - oc.tasks_rejected);
    local_stats.recovery.degraded = true;
    probe.run_degraded(now, static_cast<std::size_t>(
                                local_stats.recovery.tasks_unfinished));
  }

  if (stats != nullptr) {
    if (!std::isfinite(local_stats.first_idle_time)) {
      local_stats.first_idle_time = schedule.makespan();
    }
    *stats = local_stats;
  }
  if (counters != nullptr) {
    oc.final_mode = mode;
    *counters = oc;
  }
  if (comm != nullptr && comm->transfer_time_total != nullptr) {
    *comm->transfer_time_total = transfer_total;
  }
  return schedule;
}

}  // namespace detail

Schedule heteroprio(std::span<const Task> tasks, const Platform& platform,
                    const HeteroPrioOptions& options, HeteroPrioStats* stats) {
  return detail::run_heteroprio(tasks, nullptr, platform, options, stats);
}

}  // namespace hp
