#include "core/heteroprio.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
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

#if defined(__SSE2__) && !defined(HP_NO_SIMD)
#include <emmintrin.h>
#define HP_ENGINE_SSE2 1
#endif

namespace hp {

namespace detail {

namespace {

// ReadyQueue, VictimKey/VictimLess, RunningSet and strictly_better moved to
// core/engine_parts.hpp so the online runtime shares them verbatim.

/// Simulation event. kCompletion is the only kind of a fault-free run; the
/// fault kinds are pushed up front from the plan (crashes, straggler window
/// edges) or during recovery (delayed retries).
struct EngineEvent {
  enum class Kind : std::uint8_t {
    kCompletion,  ///< a worker's running task reaches its end (or fail point)
    kCrash,       ///< permanent loss of `worker`
    kSlowBegin,   ///< straggler window opens on `worker` (`value` = slowdown)
    kSlowEnd,     ///< straggler window closes on `worker`
    kRetry,       ///< backoff elapsed: `task` re-enters the ready queue
  };
  Kind kind = Kind::kCompletion;
  WorkerId worker = -1;
  TaskId task = kInvalidTask;
  std::uint64_t generation = 0;  ///< stale-event filter after aborts
  double value = 0.0;
};

/// Earliest entry of `finish` (idle lanes hold +inf; `count` is padded to a
/// multiple of two with +inf). The scalar min loop is a serial minsd
/// dependency chain — at ~4 cycles per link it dominates the engine's inner
/// loop — so the SSE2 form runs two independent accumulator chains.
double min_finish_time(const double* finish, std::size_t count) noexcept {
#ifdef HP_ENGINE_SSE2
  __m128d acc0 = _mm_loadu_pd(finish);
  __m128d acc1 = acc0;
  std::size_t w = 2;
  for (; w + 4 <= count; w += 4) {
    acc0 = _mm_min_pd(acc0, _mm_loadu_pd(finish + w));
    acc1 = _mm_min_pd(acc1, _mm_loadu_pd(finish + w + 2));
  }
  for (; w + 2 <= count; w += 2) {
    acc0 = _mm_min_pd(acc0, _mm_loadu_pd(finish + w));
  }
  acc0 = _mm_min_pd(acc0, acc1);
  acc0 = _mm_min_sd(acc0, _mm_unpackhi_pd(acc0, acc0));
  return _mm_cvtsd_f64(acc0);
#else
  double t = finish[0];
  for (std::size_t w = 1; w < count; ++w) t = std::min(t, finish[w]);
  return t;
#endif
}

/// Bitmask of lanes with finish[w] == t (the completion batch at instant t).
std::uint64_t equal_finish_mask(const double* finish, std::size_t count,
                                double t) noexcept {
  std::uint64_t mask = 0;
#ifdef HP_ENGINE_SSE2
  const __m128d vt = _mm_set1_pd(t);
  for (std::size_t w = 0; w + 2 <= count; w += 2) {
    const int bits = _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(finish + w), vt));
    mask |= static_cast<std::uint64_t>(bits) << w;
  }
#else
  for (std::size_t w = 0; w < count; ++w) {
    if (finish[w] == t) mask |= std::uint64_t{1} << w;
  }
#endif
  return mask;
}

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
  constexpr double kInf = std::numeric_limits<double>::infinity();

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

  // Stale-event wakeups. In the general loop a spoliated victim's pending
  // completion event stays in the heap; popping it later is a no-op for the
  // schedule but still runs a dispatch at that instant, and an idle worker
  // seen by that dispatch counts a spoliation attempt or skip. To keep the
  // counters bitwise identical the fast engine remembers each victim's
  // abandoned finish time and wakes at it too.
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

}  // namespace

Schedule run_heteroprio(std::span<const Task> tasks, const TaskGraph* graph,
                        const Platform& platform,
                        const HeteroPrioOptions& options,
                        HeteroPrioStats* stats) {
  assert(graph == nullptr || graph->tasks().size() == tasks.size());
  // Estimated times drive every decision; actual times drive the clock.
  const std::span<const Task> actuals =
      options.actual_times.empty() ? tasks : options.actual_times;
  assert(actuals.size() == tasks.size());

  Schedule schedule(tasks.size());
  HeteroPrioStats local_stats;
  local_stats.first_idle_time = std::numeric_limits<double>::infinity();

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

  // Unobserved independent fault-free runs — the >10M tasks/s throughput
  // path — take the heap-free bitmask engine. Everything it skips (event
  // queue, probes, tracker, incremental running sets) is unobservable under
  // these preconditions, so the schedule and counters are bitwise identical
  // to the general loop below (pinned by test_soa_regression).
  if (graph == nullptr && !faulty && options.sink == nullptr &&
      platform.workers() > 0 && platform.workers() <= 63) {
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

  // Batched split of the AoS records into flat arrays + packed ready keys
  // for the general loop.
  const soa::TaskSoA soa = [&] {
    const obs::PhaseScope key_scope(metrics, obs::Phase::kKeyBuild);
    return soa::build_task_soa(tasks, arena);
  }();

  // Actual durations as flat arrays for the general loop's clock.
  std::span<const double> act_cpu = soa.cpu;
  std::span<const double> act_gpu = soa.gpu;
  if (!options.actual_times.empty()) {
    double* ac = arena.alloc<double>(actuals.size());
    double* ag = arena.alloc<double>(actuals.size());
    for (std::size_t i = 0; i < actuals.size(); ++i) {
      ac[i] = actuals[i].cpu_time;
      ag[i] = actuals[i].gpu_time;
    }
    act_cpu = {ac, actuals.size()};
    act_gpu = {ag, actuals.size()};
  }

  sim::WorkerPool pool(platform);
  pool.attach_sink(options.sink);
  sim::EventQueue<EngineEvent> events;
  const std::span<std::uint64_t> generation =
      arena.alloc_zeroed<std::uint64_t>(
          static_cast<std::size_t>(platform.workers()));

  // Per-worker flag: the attempt currently running on the worker will abort
  // at its (already shortened) completion event. Per-task failed-attempt
  // counts drive the retry budget. Both exist only on faulty runs.
  std::span<char> pending_fail;
  std::span<int> failed_attempts;
  if (faulty) {
    pending_fail = arena.alloc_zeroed<char>(
        static_cast<std::size_t>(platform.workers()));
    failed_attempts = arena.alloc_zeroed<int>(tasks.size());
    for (const fault::CrashEvent& c : plan->crashes()) {
      if (c.worker < 0 || c.worker >= platform.workers()) continue;
      events.push(c.time, EngineEvent{EngineEvent::Kind::kCrash, c.worker,
                                      kInvalidTask, 0, 0.0});
    }
    for (const fault::StragglerWindow& win : plan->stragglers()) {
      if (win.worker < 0 || win.worker >= platform.workers()) continue;
      events.push(win.begin,
                  EngineEvent{EngineEvent::Kind::kSlowBegin, win.worker,
                              kInvalidTask, 0, win.slowdown});
      events.push(win.end, EngineEvent{EngineEvent::Kind::kSlowEnd, win.worker,
                                       kInvalidTask, 0, 0.0});
    }
  }

  ReadyQueue queue(soa, arena);
  std::optional<ReadyTracker> tracker;
  if (graph != nullptr) {
    tracker.emplace(*graph);
    const obs::PhaseScope ready_scope(metrics, obs::Phase::kReadyUpdate);
    for (TaskId id : tracker->initially_ready()) {
      queue.insert(id);
      probe.ready(0.0, id);
    }
  } else {
    // Crash re-enqueues and retries of a faulty run insert into the
    // presorted buffer like any other insert.
    {
      const obs::PhaseScope sort_scope(metrics, obs::Phase::kSort);
      queue.presort_all(tasks.size(), arena);
    }
    if (probe) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        probe.ready(0.0, static_cast<TaskId>(i));
      }
    }
  }

  // Incremental per-resource running sets in spoliation-scan order, updated
  // on start/release in O(log W) — replaces collecting and sorting the busy
  // workers of the other type on every spoliation attempt.
  const VictimLess victim_less{victim_order == VictimOrder::kPriority};
  RunningSet running_set[2] = {
      RunningSet(victim_less, static_cast<std::size_t>(platform.cpus()),
                 arena),
      RunningSet(victim_less, static_cast<std::size_t>(platform.gpus()),
                 arena)};
  const std::span<VictimKey> victim_key = arena.alloc_zeroed<VictimKey>(
      static_cast<std::size_t>(platform.workers()));

  std::size_t completed = 0;
  double now = 0.0;

  auto start_task = [&](WorkerId w, TaskId id) {
    const Resource res = platform.type_of(w);
    const auto i = static_cast<std::size_t>(id);
    double dt = res == Resource::kCpu ? act_cpu[i] : act_gpu[i];
    if (faulty) {
      // The injected reality: a pre-drawn failure truncates the attempt's
      // work, and straggler windows stretch wall-clock time around it. The
      // believed VictimKey below still uses the plain estimate — the
      // scheduler never reads the plan.
      const fault::AttemptOutcome outcome =
          plan->attempt_outcome(id, failed_attempts[i]);
      if (outcome.fails) {
        dt *= outcome.fail_fraction;
        pending_fail[static_cast<std::size_t>(w)] = 1;
      }
      dt = plan->finish_time(w, now, dt) - now;
    }
    const double finish = pool.start(w, id, now, dt);
    ++generation[static_cast<std::size_t>(w)];
    events.push(finish,
                EngineEvent{EngineEvent::Kind::kCompletion, w, id,
                            generation[static_cast<std::size_t>(w)], 0.0});
    const VictimKey key{now + soa.time_on(id, res), soa.priority[i], id, w};
    victim_key[static_cast<std::size_t>(w)] = key;
    running_set[static_cast<std::size_t>(res)].insert(key);
    probe.start(now, id, w);
  };

  auto release_worker = [&](WorkerId w) -> sim::Running {
    running_set[static_cast<std::size_t>(platform.type_of(w))].erase(
        victim_key[static_cast<std::size_t>(w)]);
    if (faulty) pending_fail[static_cast<std::size_t>(w)] = 0;
    return pool.release_at(w, now);
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
      // Abort the victim's execution; its progress is lost.
      const WorkerId victim = key.worker;
      const sim::Running aborted = release_worker(victim);
      ++generation[static_cast<std::size_t>(victim)];  // stale its event
      schedule.add_aborted(aborted.task, victim, aborted.start, now);
      ++local_stats.spoliations;
      probe.abort(now, aborted.task, victim);
      probe.spoliate_commit(now, aborted.task, w, victim);
      start_task(w, aborted.task);
      return true;
    }
    return false;
  };

  // Offer work to every idle worker (GPUs first) until a full pass changes
  // nothing. Spoliation can idle a worker of the other type mid-pass, hence
  // the outer repeat.
  std::vector<WorkerId> idle_scratch;
  auto dispatch_idle = [&] {
    bool acted = true;
    while (acted) {
      acted = false;
      pool.idle_workers_gpu_first(idle_scratch);
      for (WorkerId w : idle_scratch) {
        if (pool.busy(w)) continue;  // filled earlier in this pass
        if (!queue.empty()) {
          const TaskId id = platform.type_of(w) == Resource::kGpu
                                ? queue.pop_gpu_end()
                                : queue.pop_cpu_end();
          start_task(w, id);
          acted = true;
        } else {
          local_stats.first_idle_time =
              std::min(local_stats.first_idle_time, now);
          if (!options.enable_spoliation) continue;
          // No victim can exist while the other resource is fully idle;
          // skip the scan outright (the common case once the queue drains).
          if (pool.busy_count(other(platform.type_of(w))) == 0) {
            ++local_stats.spoliation_skips;
            probe.spoliate_skip(now, w);
          } else if (try_spoliate(w)) {
            acted = true;
          }
        }
      }
    }
  };

  // Queue-depth samples bracket every dispatch: the pre-sample captures the
  // peak after a ready burst, the post-sample the steady-state backlog.
  auto dispatch_and_sample = [&] {
    probe.queue_depth(now, queue.size());
    {
      const obs::PhaseScope dispatch_scope(metrics, obs::Phase::kDispatch);
      dispatch_idle();
    }
    probe.queue_depth(now, queue.size());
  };

  // One completed attempt popped from the event queue. On a fault-free run
  // every valid completion places the task; on a faulty run the attempt may
  // instead be an injected failure — the progress is recorded as an aborted
  // segment and the task retried (after the plan's backoff) until its
  // attempt budget runs out.
  auto handle_completion = [&](const EngineEvent& ev) {
    const WorkerId w = ev.worker;
    if (ev.generation != generation[static_cast<std::size_t>(w)]) {
      return;  // stale: the task was spoliated or crashed away
    }
    if (!pool.busy(w)) return;
    const bool attempt_failed =
        faulty && pending_fail[static_cast<std::size_t>(w)] != 0;
    const sim::Running done = release_worker(w);
    if (attempt_failed) {
      schedule.add_aborted(done.task, w, done.start, now);
      const int failures = ++failed_attempts[static_cast<std::size_t>(done.task)];
      ++local_stats.recovery.task_failures;
      probe.task_fail(now, done.task, w, failures - 1);
      if (failures >= plan->max_attempts()) {
        ++local_stats.recovery.tasks_abandoned;
        return;  // budget exhausted: the task stays unfinished
      }
      ++local_stats.recovery.task_retries;
      const double delay = plan->backoff_delay(failures);
      if (delay > 0.0) {
        events.push(now + delay, EngineEvent{EngineEvent::Kind::kRetry, -1,
                                             done.task, 0, 0.0});
      } else {
        probe.task_retry(now, done.task, failures);
        queue.insert(done.task);
        probe.ready(now, done.task);
      }
      return;
    }
    schedule.place(done.task, w, done.start, done.finish);
    ++completed;
    probe.complete(now, done.task, w);
    if (tracker.has_value()) {
      const obs::PhaseScope ready_scope(metrics, obs::Phase::kReadyUpdate);
      for (TaskId released : tracker->complete(done.task)) {
        queue.insert(released);
        probe.ready(now, released);
      }
    }
  };

  // Permanent loss of a worker: abort whatever it runs (re-enqueued with no
  // charge against the task's retry budget — the task did nothing wrong)
  // and remove the worker from the pool, so dispatch and spoliation see
  // only the surviving platform from here on.
  auto handle_crash = [&](WorkerId w) {
    if (pool.failed(w)) return;
    ++local_stats.recovery.worker_crashes;
    if (pool.busy(w)) {
      const sim::Running victim = release_worker(w);
      ++generation[static_cast<std::size_t>(w)];  // stale its completion
      schedule.add_aborted(victim.task, w, victim.start, now);
      probe.abort(now, victim.task, w);
      queue.insert(victim.task);
      probe.ready(now, victim.task);
      ++local_stats.recovery.crash_requeues;
    }
    pool.mark_failed(w);
    probe.worker_crash(now, w);
  };

  dispatch_and_sample();

  while (completed < tasks.size()) {
    if (events.empty()) {
      // Only reachable under faults: every remaining task lost its workers
      // or its retry budget. Fault-free runs always hold an event per
      // incomplete task's worker.
      assert(faulty && "deadlock: no events but tasks incomplete");
      break;
    }
    // Pop the batch of simultaneous valid events. Within a batch, queue
    // order (push sequence) decides: a crash pushed at init pops before a
    // completion at the same instant, so crash-vs-finish ties go to the
    // crash, deterministically.
    const double t = events.top().time;
    now = t;
    while (!events.empty() && events.top().time == t) {
      const auto ev = events.pop();
      switch (ev.payload.kind) {
        case EngineEvent::Kind::kCompletion:
          handle_completion(ev.payload);
          break;
        case EngineEvent::Kind::kCrash:
          handle_crash(ev.payload.worker);
          break;
        case EngineEvent::Kind::kSlowBegin:
          ++local_stats.recovery.straggler_windows;
          probe.worker_slow_begin(now, ev.payload.worker, ev.payload.value);
          break;
        case EngineEvent::Kind::kSlowEnd:
          probe.worker_slow_end(now, ev.payload.worker);
          break;
        case EngineEvent::Kind::kRetry:
          probe.task_retry(
              now, ev.payload.task,
              failed_attempts[static_cast<std::size_t>(ev.payload.task)]);
          queue.insert(ev.payload.task);
          probe.ready(now, ev.payload.task);
          break;
      }
    }
    dispatch_and_sample();
  }

  if (completed < tasks.size()) {
    local_stats.recovery.tasks_unfinished =
        static_cast<int>(tasks.size() - completed);
    local_stats.recovery.degraded = true;
    probe.run_degraded(now, local_stats.recovery.tasks_unfinished);
  }

  if (stats != nullptr) {
    if (!std::isfinite(local_stats.first_idle_time)) {
      local_stats.first_idle_time = schedule.makespan();
    }
    *stats = local_stats;
  }
  return schedule;
}

}  // namespace detail

Schedule heteroprio(std::span<const Task> tasks, const Platform& platform,
                    const HeteroPrioOptions& options, HeteroPrioStats* stats) {
  return detail::run_heteroprio(tasks, nullptr, platform, options, stats);
}

}  // namespace hp
