#include "online/runtime.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include "core/engine_parts.hpp"
#include "dag/ready_tracker.hpp"
#include "model/task_soa.hpp"
#include "obs/profile.hpp"
#include "sim/event_queue.hpp"
#include "sim/worker_pool.hpp"
#include "util/arena.hpp"

namespace hp::online {

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::kHealthy: return "healthy";
    case Mode::kDegraded: return "degraded";
    case Mode::kShedding: return "shedding";
  }
  return "?";
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Simulation event of the online runtime. The first five kinds mirror the
/// batch engine's EngineEvent one to one (same handlers, same same-instant
/// semantics); the last two exist only online. Arrivals are not events:
/// they are read from a sorted cursor in front of the queue.
struct OnlineEvent {
  enum class Kind : std::uint8_t {
    kCompletion,  ///< a worker's running task reaches its end (or fail point)
    kCrash,       ///< permanent loss of `worker`
    kSlowBegin,   ///< straggler window opens on `worker` (`value` = slowdown)
    kSlowEnd,     ///< straggler window closes on `worker`
    kRetry,       ///< backoff elapsed: `task` re-enters the ready queue
    kDeadline,    ///< `task`'s absolute deadline instant
    kTick,        ///< rolling-horizon reschedule tick (`value` = index)
  };
  Kind kind = Kind::kCompletion;
  WorkerId worker = -1;
  TaskId task = kInvalidTask;
  std::uint64_t generation = 0;  ///< stale-event filter after aborts
  double value = 0.0;
};

// Per-task admission state.
constexpr std::uint8_t kNotArrived = 0;
constexpr std::uint8_t kAdmitted = 1;
constexpr std::uint8_t kDeferred = 2;
constexpr std::uint8_t kRejected = 3;

/// Task ids 0..n-1 in (arrival time, id) order, in the arena. A task beyond
/// the plan's size arrives at 0 and plan entries beyond n are ignored (see
/// ArrivalPlan::arrival). ArrivalPlan::generate draws plans monotone in id,
/// for which an O(n) check keeps the identity order; others are sorted.
std::span<const TaskId> arrival_order(const ArrivalPlan* arrivals,
                                      std::size_t n, util::Arena& arena) {
  TaskId* order = arena.alloc<TaskId>(n);
  std::iota(order, order + n, TaskId{0});
  if (arrivals == nullptr) return {order, n};
  const auto by_arrival = [arrivals](TaskId a, TaskId b) {
    const double ta = arrivals->arrival(a);
    const double tb = arrivals->arrival(b);
    return ta != tb ? ta < tb : a < b;
  };
  if (!std::is_sorted(order, order + n, by_arrival)) {
    std::sort(order, order + n, by_arrival);
  }
  return {order, n};
}

Schedule run_online(std::span<const Task> tasks, const TaskGraph* graph,
                    const Platform& platform, const OnlineOptions& options,
                    OnlineStats* stats) {
  assert(graph == nullptr || graph->tasks().size() == tasks.size());
  const std::span<const Task> actuals =
      options.actual_times.empty() ? tasks : options.actual_times;
  assert(actuals.size() == tasks.size());

  const std::size_t n = tasks.size();
  Schedule schedule(n);
  OnlineStats local;
  local.first_idle_time = kInf;

  util::Arena& arena = util::scratch_arena();
  const util::ArenaScope arena_scope(arena);

  obs::MetricsCollector* const metrics = options.metrics;
  const obs::PhaseScope engine_scope(metrics, obs::Phase::kEngine);
  const obs::Probe probe(options.sink);

  const fault::FaultPlan* plan = options.faults;
  const bool faulty = plan != nullptr && !plan->empty();

  const ArrivalPlan* arrivals =
      (options.arrivals != nullptr && !options.arrivals->empty())
          ? options.arrivals
          : nullptr;

  VictimOrder victim_order = options.victim_order;
  if (victim_order == VictimOrder::kAuto) {
    victim_order = graph == nullptr ? VictimOrder::kCompletionTime
                                    : VictimOrder::kPriority;
  }

  const soa::TaskSoA soa = [&] {
    const obs::PhaseScope key_scope(metrics, obs::Phase::kKeyBuild);
    return soa::build_task_soa(tasks, arena);
  }();

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
  sim::EventQueue<OnlineEvent> events;
  const std::span<std::uint64_t> generation =
      arena.alloc_zeroed<std::uint64_t>(
          static_cast<std::size_t>(platform.workers()));

  // Arrivals are a cursor over task ids in (arrival time, id) order, read
  // in front of the event queue: at each instant every arrival drains
  // before any queued event of that instant, same-instant arrivals in id
  // order. With everything at t=0 this reproduces the batch engine's
  // id-order ready set exactly (the bitwise-identity anchor). Fault events
  // go into the queue in the batch engine's push order.
  const std::span<const TaskId> order = arrival_order(arrivals, n, arena);
  std::size_t next_arrival = 0;  ///< cursor position in `order`
  // +inf once the cursor is exhausted, like an empty queue.
  auto arrival_time = [&]() -> double {
    if (next_arrival == n) return kInf;
    return arrivals != nullptr ? arrivals->arrival(order[next_arrival]) : 0.0;
  };

  std::span<char> pending_fail;
  std::span<int> failed_attempts;
  if (faulty) {
    pending_fail = arena.alloc_zeroed<char>(
        static_cast<std::size_t>(platform.workers()));
    failed_attempts = arena.alloc_zeroed<int>(n);
    for (const fault::CrashEvent& c : plan->crashes()) {
      if (c.worker < 0 || c.worker >= platform.workers()) continue;
      events.push(c.time, OnlineEvent{OnlineEvent::Kind::kCrash, c.worker,
                                      kInvalidTask, 0, 0.0});
    }
    for (const fault::StragglerWindow& win : plan->stragglers()) {
      if (win.worker < 0 || win.worker >= platform.workers()) continue;
      events.push(win.begin,
                  OnlineEvent{OnlineEvent::Kind::kSlowBegin, win.worker,
                              kInvalidTask, 0, win.slowdown});
      events.push(win.end, OnlineEvent{OnlineEvent::Kind::kSlowEnd,
                                       win.worker, kInvalidTask, 0, 0.0});
    }
  }

  const bool ticks_on = options.reschedule_period > 0.0;
  if (ticks_on) {
    events.push(options.reschedule_period,
                OnlineEvent{OnlineEvent::Kind::kTick, -1, kInvalidTask, 0,
                            0.0});
  }

  detail::ReadyQueue queue(soa, arena);
  // Keys made ready at the current instant, inserted in one batch before
  // the next dispatch (nothing reads the queue while an instant drains).
  util::ArenaVector<util::KeyId2> pending(arena);

  // Admission / readiness state. `released` covers dependencies (always set
  // for independent tasks); a task enters the ready structure once it is
  // both released and admitted.
  const std::span<std::uint8_t> state = arena.alloc_zeroed<std::uint8_t>(n);
  std::span<char> released;
  std::optional<ReadyTracker> tracker;
  if (graph != nullptr) {
    tracker.emplace(*graph);
    released = arena.alloc_zeroed<char>(n);
    for (TaskId id : tracker->initially_ready()) {
      released[static_cast<std::size_t>(id)] = 1;
    }
  }
  std::span<char> deadline_missed;
  if (arrivals != nullptr && arrivals->has_deadlines()) {
    deadline_missed = arena.alloc_zeroed<char>(n);
  }
  // Per-task respawn count drives the exponential backoff of repeated
  // straggler rescues; allocated only when detection is on.
  const bool respawn_on = options.straggler_factor > 1.0 && ticks_on;
  std::span<int> respawn_count;
  if (respawn_on) respawn_count = arena.alloc_zeroed<int>(n);

  const detail::VictimLess victim_less{victim_order == VictimOrder::kPriority};
  detail::RunningSet running_set[2] = {
      detail::RunningSet(victim_less,
                         static_cast<std::size_t>(platform.cpus()), arena),
      detail::RunningSet(victim_less,
                         static_cast<std::size_t>(platform.gpus()), arena)};
  const std::span<detail::VictimKey> victim_key =
      arena.alloc_zeroed<detail::VictimKey>(
          static_cast<std::size_t>(platform.workers()));

  // Admission control configuration. Hysteresis: enter shedding at >= high,
  // leave at <= low.
  const bool admission_on = options.watermark_high > 0;
  const std::size_t wm_high = options.watermark_high;
  const std::size_t wm_low =
      admission_on
          ? std::min(options.watermark_low > 0 ? options.watermark_low
                                               : wm_high / 2,
                     wm_high - 1)
          : 0;
  std::vector<TaskId> deferred_fifo;
  std::size_t deferred_head = 0;

  std::size_t completed = 0;
  double now = 0.0;
  Mode mode = Mode::kHealthy;
  std::size_t batch_inserts = 0;  ///< frontier inserts since the last replan

  auto to_mode = [&](Mode m) {
    if (m == mode) return;
    mode = m;
    ++local.mode_changes;
    probe.mode_change(now, static_cast<int>(m));
  };
  // First incident (fault, miss, shed, respawn) permanently leaves healthy.
  auto note_incident = [&] {
    if (mode == Mode::kHealthy) to_mode(Mode::kDegraded);
  };

  auto insert_ready = [&](TaskId id) {
    pending.push_back(queue.key_of(id));
    probe.ready(now, id);
    ++batch_inserts;
  };
  auto backlog = [&] { return queue.size() + pending.size(); };

  auto flush_replan = [&] {
    if (batch_inserts == 0) return;
    ++local.replans;
    probe.replan(now, batch_inserts);
    batch_inserts = 0;
  };

  auto admit = [&](TaskId id) {
    state[static_cast<std::size_t>(id)] = kAdmitted;
    ++local.tasks_admitted;
    if (graph == nullptr || released[static_cast<std::size_t>(id)] != 0) {
      insert_ready(id);
    }
  };

  // A DAG task behind a rejected or abandoned ancestor is never released.
  // Once it has arrived it is settled: it ends the run unfinished.
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

  auto abandoned_count = [&]() -> std::size_t {
    return static_cast<std::size_t>(local.recovery.tasks_abandoned);
  };
  auto accounted = [&]() -> std::size_t {
    return completed + local.tasks_rejected + abandoned_count() +
           blocked_arrived;
  };

  auto handle_arrival = [&](TaskId id) {
    ++local.tasks_arrived;
    probe.task_arrival(now, id);
    const double rel =
        arrivals != nullptr ? arrivals->rel_deadline(id) : 0.0;
    if (rel > 0.0) {
      events.push(now + rel, OnlineEvent{OnlineEvent::Kind::kDeadline, -1,
                                         id, 0, 0.0});
    }
    // Load shedding: counted, never silently dropped. Retries and crash
    // re-enqueues of already-admitted tasks bypass this gate entirely.
    const bool shed = admission_on && mode == Mode::kShedding;
    if (shed && options.shed_policy == ShedPolicy::kReject) {
      state[static_cast<std::size_t>(id)] = kRejected;
      ++local.tasks_rejected;
      probe.task_shed(now, id);
      if (graph != nullptr) block_descendants(id);
      return;
    }
    if (!blocked.empty() && blocked[static_cast<std::size_t>(id)] != 0) {
      ++blocked_arrived;
    }
    if (shed) {
      state[static_cast<std::size_t>(id)] = kDeferred;
      ++local.tasks_deferred;
      deferred_fifo.push_back(id);
      probe.task_deferred(now, id);
      return;
    }
    admit(id);
  };

  auto handle_deadline = [&](TaskId id) {
    if (schedule.placement(id).placed()) return;  // finished in time
    deadline_missed[static_cast<std::size_t>(id)] = 1;
    ++local.deadline_misses;
    probe.deadline_miss(now, id);
    note_incident();
  };

  auto start_task = [&](WorkerId w, TaskId id) {
    const Resource res = platform.type_of(w);
    const auto i = static_cast<std::size_t>(id);
    double dt = res == Resource::kCpu ? act_cpu[i] : act_gpu[i];
    if (faulty) {
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
                OnlineEvent{OnlineEvent::Kind::kCompletion, w, id,
                            generation[static_cast<std::size_t>(w)], 0.0});
    const detail::VictimKey key{now + soa.time_on(id, res), soa.priority[i],
                                id, w};
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

  auto try_spoliate = [&](WorkerId w) -> bool {
    const obs::PhaseScope scan_scope(metrics, obs::Phase::kSpoliationScan);
    ++local.spoliation_attempts;
    probe.spoliate_attempt(now, w);
    const Resource mine = platform.type_of(w);
    const auto& candidates =
        running_set[static_cast<std::size_t>(other(mine))];
    for (const detail::VictimKey& key : candidates) {
      const double dt = soa.time_on(key.task, mine);
      double believed_finish = key.finish;
      if (faulty && believed_finish <= now) {
        believed_finish = now + soa.time_on(key.task, other(mine));
      }
      if (!detail::strictly_better(now + dt, believed_finish)) continue;
      const WorkerId victim = key.worker;
      const sim::Running aborted = release_worker(victim);
      ++generation[static_cast<std::size_t>(victim)];
      schedule.add_aborted(aborted.task, victim, aborted.start, now);
      ++local.spoliations;
      probe.abort(now, aborted.task, victim);
      probe.spoliate_commit(now, aborted.task, w, victim);
      start_task(w, aborted.task);
      return true;
    }
    return false;
  };

  std::vector<WorkerId> idle_scratch;
  auto dispatch_idle = [&] {
    bool acted = true;
    while (acted) {
      acted = false;
      pool.idle_workers_gpu_first(idle_scratch);
      for (WorkerId w : idle_scratch) {
        if (pool.busy(w)) continue;
        if (!queue.empty()) {
          const TaskId id = platform.type_of(w) == Resource::kGpu
                                ? queue.pop_gpu_end()
                                : queue.pop_cpu_end();
          start_task(w, id);
          acted = true;
        } else {
          local.first_idle_time = std::min(local.first_idle_time, now);
          if (!options.enable_spoliation) continue;
          if (pool.busy_count(other(platform.type_of(w))) == 0) {
            ++local.spoliation_skips;
            probe.spoliate_skip(now, w);
          } else if (try_spoliate(w)) {
            acted = true;
          }
        }
      }
    }
  };

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
    if (mode != Mode::kShedding && backlog() >= wm_high) {
      note_incident();  // healthy crosses through degraded, two transitions
      to_mode(Mode::kShedding);
    } else if (mode == Mode::kShedding && backlog() <= wm_low) {
      to_mode(Mode::kDegraded);  // hysteresis exit; healthy is gone for good
    }
    bool readmitted = false;
    if (mode != Mode::kShedding) {
      while (deferred_head < deferred_fifo.size() && backlog() < wm_high) {
        admit(deferred_fifo[deferred_head++]);
        readmitted = true;
      }
      if (backlog() >= wm_high && deferred_head < deferred_fifo.size()) {
        to_mode(Mode::kShedding);  // refilled to the brim with tasks left over
      }
    }
    return readmitted;
  };

  auto handle_completion = [&](const OnlineEvent& ev) {
    const WorkerId w = ev.worker;
    if (ev.generation != generation[static_cast<std::size_t>(w)]) {
      return;  // stale: the task was spoliated, crashed or respawned away
    }
    if (!pool.busy(w)) return;
    const bool attempt_failed =
        faulty && pending_fail[static_cast<std::size_t>(w)] != 0;
    const sim::Running done = release_worker(w);
    if (attempt_failed) {
      schedule.add_aborted(done.task, w, done.start, now);
      const int failures =
          ++failed_attempts[static_cast<std::size_t>(done.task)];
      ++local.recovery.task_failures;
      probe.task_fail(now, done.task, w, failures - 1);
      note_incident();
      if (failures >= plan->max_attempts()) {
        ++local.recovery.tasks_abandoned;
        if (graph != nullptr) block_descendants(done.task);
        return;
      }
      ++local.recovery.task_retries;
      const double delay = plan->backoff_delay(failures);
      if (delay > 0.0) {
        events.push(now + delay, OnlineEvent{OnlineEvent::Kind::kRetry, -1,
                                             done.task, 0, 0.0});
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
        released[static_cast<std::size_t>(rel)] = 1;
        // Successors enter the frontier only once admitted; deferred or
        // unarrived tasks wait for their admission.
        if (state[static_cast<std::size_t>(rel)] == kAdmitted) {
          insert_ready(rel);
        }
      }
    }
  };

  auto handle_crash = [&](WorkerId w) {
    if (pool.failed(w)) return;
    ++local.recovery.worker_crashes;
    note_incident();
    if (pool.busy(w)) {
      const sim::Running victim = release_worker(w);
      ++generation[static_cast<std::size_t>(w)];
      schedule.add_aborted(victim.task, w, victim.start, now);
      probe.abort(now, victim.task, w);
      // Crash re-enqueue bypasses admission: the task is already admitted
      // and must never be dropped.
      insert_ready(victim.task);
      ++local.recovery.crash_requeues;
    }
    pool.mark_failed(w);
    probe.worker_crash(now, w);
  };

  // Straggler scan at a reschedule tick: abort any attempt overdue by more
  // than straggler_factor x its estimate and re-enqueue the task, under the
  // respawn budget, with the fault layer's exponential backoff when one is
  // configured. Never charges failed_attempts — the outcome draws of the
  // fault plan must not shift.
  auto handle_tick = [&](const OnlineEvent& ev) {
    ++local.reschedule_ticks;
    probe.reschedule_tick(now, static_cast<std::size_t>(ev.value));
    if (respawn_on) {
      for (WorkerId w = 0; w < platform.workers(); ++w) {
        if (options.respawn_budget > 0 &&
            local.recovery.straggler_respawns >= options.respawn_budget) {
          break;
        }
        if (!pool.busy(w)) continue;
        const sim::Running& run = pool.running(w);
        const double est = soa.time_on(run.task, platform.type_of(w));
        if (now <= run.start + options.straggler_factor * est) continue;
        const TaskId task = run.task;
        const sim::Running victim = release_worker(w);
        ++generation[static_cast<std::size_t>(w)];
        schedule.add_aborted(victim.task, w, victim.start, now);
        probe.abort(now, victim.task, w);
        const int idx = ++local.recovery.straggler_respawns;
        probe.straggler_respawn(now, task, w, idx - 1);
        note_incident();
        const int count =
            ++respawn_count[static_cast<std::size_t>(task)];
        const double delay = faulty ? plan->backoff_delay(count) : 0.0;
        if (delay > 0.0) {
          events.push(now + delay, OnlineEvent{OnlineEvent::Kind::kRetry,
                                               -1, task, 0, 0.0});
        } else {
          insert_ready(task);
        }
      }
    }
    if (pool.alive_count() > 0 && accounted() < n) {
      events.push(now + options.reschedule_period,
                  OnlineEvent{OnlineEvent::Kind::kTick, -1, kInvalidTask, 0,
                              ev.value + 1.0});
    }
  };

  auto drain_arrivals_at = [&](double t) {
    for (; arrival_time() == t; ++next_arrival) {
      handle_arrival(order[next_arrival]);
    }
  };

  // Drain the t=0 arrival batch before the initial dispatch, unless a
  // queued event comes earlier. This mirrors the batch engine's pre-loop
  // ready set + first dispatch_and_sample: with every arrival at t=0 the
  // ready structure holds the same keys and the remaining event stream
  // (fault events, completions) keeps the batch engine's relative order —
  // the bitwise-identity anchor.
  if (!events.time_if_before(0.0).has_value()) {
    drain_arrivals_at(0.0);
    flush_replan();
  }
  for (;;) {
    dispatch_and_sample();
    if (!update_mode()) break;
  }
  flush_replan();

  while (accounted() < n) {
    // Earliest pending instant (an arrival or any event; +inf = "none").
    const double t =
        std::min(arrival_time(), events.time_if_before(kInf).value_or(kInf));
    if (!(t < kInf)) {
      // Only reachable when faults removed the means to finish (or the
      // platform had no workers to begin with).
      assert((faulty || platform.workers() == 0) &&
             "deadlock: no events but tasks unaccounted");
      break;
    }
    now = t;
    drain_arrivals_at(t);
    while (!events.empty() && events.top().time == t) {
      const auto ev = events.pop();
      switch (ev.payload.kind) {
        case OnlineEvent::Kind::kCompletion:
          handle_completion(ev.payload);
          break;
        case OnlineEvent::Kind::kCrash:
          handle_crash(ev.payload.worker);
          break;
        case OnlineEvent::Kind::kSlowBegin:
          ++local.recovery.straggler_windows;
          note_incident();
          probe.worker_slow_begin(now, ev.payload.worker, ev.payload.value);
          break;
        case OnlineEvent::Kind::kSlowEnd:
          probe.worker_slow_end(now, ev.payload.worker);
          break;
        case OnlineEvent::Kind::kRetry:
          probe.task_retry(
              now, ev.payload.task,
              faulty ? failed_attempts[static_cast<std::size_t>(
                           ev.payload.task)]
                     : 0);
          insert_ready(ev.payload.task);
          break;
        case OnlineEvent::Kind::kDeadline:
          handle_deadline(ev.payload.task);
          break;
        case OnlineEvent::Kind::kTick:
          handle_tick(ev.payload);
          break;
      }
    }
    flush_replan();
    for (;;) {
      dispatch_and_sample();
      if (!update_mode()) break;
    }
    flush_replan();
  }

  // Deadlines that outlive the last placement still count: a shed or
  // abandoned task that never ran misses its deadline even though the run
  // is already over. Drain what is left of the event queue for them.
  while (events.time_if_before(kInf).has_value()) {
    const auto ev = events.pop();
    if (ev.payload.kind != OnlineEvent::Kind::kDeadline) continue;
    now = std::max(now, ev.time);
    handle_deadline(ev.payload.task);
  }

  if (completed + local.tasks_rejected < n) {
    local.recovery.tasks_unfinished =
        static_cast<int>(n - completed - local.tasks_rejected);
    local.recovery.degraded = true;
    probe.run_degraded(
        now, static_cast<std::size_t>(local.recovery.tasks_unfinished));
  }

  local.final_mode = mode;
  if (stats != nullptr) {
    if (!std::isfinite(local.first_idle_time)) {
      local.first_idle_time = schedule.makespan();
    }
    *stats = local;
  }
  return schedule;
}

}  // namespace

Schedule online_run(std::span<const Task> tasks, const Platform& platform,
                    const OnlineOptions& options, OnlineStats* stats) {
  return run_online(tasks, nullptr, platform, options, stats);
}

Schedule online_run_dag(const TaskGraph& graph, const Platform& platform,
                        const OnlineOptions& options, OnlineStats* stats) {
  return run_online(graph.tasks(), &graph, platform, options, stats);
}

}  // namespace hp::online
