#pragma once
// Typed scheduler events — the core of the observability layer.
//
// Schedulers emit Events into an EventSink as decisions happen: a task
// becomes ready, starts, completes, is aborted by spoliation; an idle scan
// is attempted, skipped or commits a victim; the ready-queue depth changes;
// a worker enters or leaves an idle interval; the bound watchdog detects a
// makespan above the paper's proven approximation ratio.
//
// The hot-path contract is zero overhead when disabled: schedulers emit
// through a Probe, a pointer-sized wrapper whose emit methods reduce to a
// single null test (and compile to nothing entirely under -DHP_OBS_OFF).
// A human-readable execution log is an exporter over a recorded stream
// (obs::text_from_events), not a separate recording mechanism.

#include <cstdint>
#include <span>

#include "model/platform.hpp"
#include "model/task.hpp"

namespace hp::obs {

enum class EventKind : std::uint8_t {
  kReady,            ///< task entered the ready queue
  kStart,            ///< task started on `worker`
  kComplete,         ///< task completed on `worker`
  kAbort,            ///< task's partial execution on `worker` was killed
  kSpoliateAttempt,  ///< idle `worker` scanned the other resource for a victim
  kSpoliateSkip,     ///< scan skipped outright (other resource fully idle)
  kSpoliateCommit,   ///< `worker` stole `task` from `victim`
  kQueueDepth,       ///< ready-queue depth sample; depth in `value`
  kIdleBegin,        ///< `worker` became idle
  kIdleEnd,          ///< `worker` got work; idle-interval length in `value`
  kBoundViolation,   ///< makespan/lower-bound ratio in `value` exceeds the
                     ///< proven bound for the platform shape
  kWorkerCrash,      ///< `worker` permanently lost (fault injection)
  kWorkerSlowBegin,  ///< `worker` entered a straggler window; slowdown factor
                     ///< in `value`
  kWorkerSlowEnd,    ///< `worker` left a straggler window
  kTaskFail,         ///< an attempt of `task` on `worker` aborted with an
                     ///< injected fault; 0-based attempt index in `value`
  kTaskRetry,        ///< `task` re-entered the ready queue after a failed
                     ///< attempt; 0-based index of the new attempt in `value`
  kRunDegraded,      ///< run ended with unfinished tasks; count in `value`
  // Online runtime kinds (src/online/). Appended so recorded streams from
  // earlier versions keep their numeric kinds.
  kTaskArrival,       ///< `task` arrived in the online runtime
  kTaskShed,          ///< admission control rejected `task` (never scheduled)
  kTaskDeferred,      ///< admission control parked `task` for later re-admission
  kDeadlineMiss,      ///< `task` had no completion at its deadline instant
  kReplan,            ///< incremental re-prioritization of the ready frontier;
                      ///< number of frontier inserts in `value`
  kRescheduleTick,    ///< rolling-horizon tick fired; 0-based index in `value`
  kModeChange,        ///< runtime mode transition; new Mode as 0/1/2 in `value`
  kStragglerRespawn,  ///< overdue `task` aborted on `worker` and re-enqueued;
                      ///< per-run respawn index in `value`
};

inline constexpr std::size_t kNumEventKinds =
    static_cast<std::size_t>(EventKind::kStragglerRespawn) + 1;

/// Printable name, e.g. "spoliate-commit".
[[nodiscard]] const char* event_kind_name(EventKind kind) noexcept;

/// Inverse of event_kind_name; false if `name` is unknown.
[[nodiscard]] bool event_kind_from_name(const char* name,
                                        EventKind* out) noexcept;

/// One scheduler event. Fields not meaningful for a kind stay at their
/// defaults (task/worker/victim -1, value 0).
struct Event {
  double time = 0.0;
  EventKind kind = EventKind::kReady;
  TaskId task = kInvalidTask;
  WorkerId worker = -1;
  WorkerId victim = -1;  ///< kSpoliateCommit: worker losing the task
  double value = 0.0;    ///< kQueueDepth: depth; kIdleEnd: idle length;
                         ///< kBoundViolation: measured ratio

  friend bool operator==(const Event&, const Event&) = default;
};

/// Stable sort into stream order: by time; at equal times a worker is freed
/// (abort, complete) before it is re-occupied (start), with spoliate-commit,
/// crash and task-fail markers, then ready and retry events, in between;
/// remaining ties by task id.
void sort_events(std::span<Event> events);

/// Consumer of scheduler events. Implementations must tolerate events
/// arriving in simulation-time order per run (monotone non-decreasing).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_event(const Event& event) = 0;
};

/// The scheduler-side emitter. Holds a (possibly null) sink; every emit
/// method is a guarded single call. `if (probe)` lets callers skip even the
/// argument computation of an emit. Under -DHP_OBS_OFF all methods compile
/// to nothing, removing the null test from the hot path entirely.
class Probe {
 public:
  Probe() = default;
  explicit Probe(EventSink* sink) : sink_(sink) {}

  [[nodiscard]] explicit operator bool() const noexcept {
#ifdef HP_OBS_OFF
    return false;
#else
    return sink_ != nullptr;
#endif
  }

  void emit(const Event& event) const {
#ifdef HP_OBS_OFF
    (void)event;
#else
    if (sink_ != nullptr) sink_->on_event(event);
#endif
  }

  void ready(double t, TaskId task) const {
    emit({.time = t, .kind = EventKind::kReady, .task = task});
  }
  void start(double t, TaskId task, WorkerId w) const {
    emit({.time = t, .kind = EventKind::kStart, .task = task, .worker = w});
  }
  void complete(double t, TaskId task, WorkerId w) const {
    emit({.time = t, .kind = EventKind::kComplete, .task = task, .worker = w});
  }
  void abort(double t, TaskId task, WorkerId w) const {
    emit({.time = t, .kind = EventKind::kAbort, .task = task, .worker = w});
  }
  void spoliate_attempt(double t, WorkerId w) const {
    emit({.time = t, .kind = EventKind::kSpoliateAttempt, .worker = w});
  }
  void spoliate_skip(double t, WorkerId w) const {
    emit({.time = t, .kind = EventKind::kSpoliateSkip, .worker = w});
  }
  void spoliate_commit(double t, TaskId task, WorkerId thief,
                       WorkerId victim) const {
    emit({.time = t,
          .kind = EventKind::kSpoliateCommit,
          .task = task,
          .worker = thief,
          .victim = victim});
  }
  void queue_depth(double t, std::size_t depth) const {
    emit({.time = t,
          .kind = EventKind::kQueueDepth,
          .value = static_cast<double>(depth)});
  }
  void idle_begin(double t, WorkerId w) const {
    emit({.time = t, .kind = EventKind::kIdleBegin, .worker = w});
  }
  void idle_end(double t, WorkerId w, double idle_length) const {
    emit({.time = t,
          .kind = EventKind::kIdleEnd,
          .worker = w,
          .value = idle_length});
  }
  void bound_violation(double t, double ratio) const {
    emit({.time = t, .kind = EventKind::kBoundViolation, .value = ratio});
  }
  void worker_crash(double t, WorkerId w) const {
    emit({.time = t, .kind = EventKind::kWorkerCrash, .worker = w});
  }
  void worker_slow_begin(double t, WorkerId w, double slowdown) const {
    emit({.time = t,
          .kind = EventKind::kWorkerSlowBegin,
          .worker = w,
          .value = slowdown});
  }
  void worker_slow_end(double t, WorkerId w) const {
    emit({.time = t, .kind = EventKind::kWorkerSlowEnd, .worker = w});
  }
  void task_fail(double t, TaskId task, WorkerId w, int attempt) const {
    emit({.time = t,
          .kind = EventKind::kTaskFail,
          .task = task,
          .worker = w,
          .value = static_cast<double>(attempt)});
  }
  void task_retry(double t, TaskId task, int attempt) const {
    emit({.time = t,
          .kind = EventKind::kTaskRetry,
          .task = task,
          .value = static_cast<double>(attempt)});
  }
  void run_degraded(double t, std::size_t unfinished) const {
    emit({.time = t,
          .kind = EventKind::kRunDegraded,
          .value = static_cast<double>(unfinished)});
  }
  void task_arrival(double t, TaskId task) const {
    emit({.time = t, .kind = EventKind::kTaskArrival, .task = task});
  }
  void task_shed(double t, TaskId task) const {
    emit({.time = t, .kind = EventKind::kTaskShed, .task = task});
  }
  void task_deferred(double t, TaskId task) const {
    emit({.time = t, .kind = EventKind::kTaskDeferred, .task = task});
  }
  void deadline_miss(double t, TaskId task) const {
    emit({.time = t, .kind = EventKind::kDeadlineMiss, .task = task});
  }
  void replan(double t, std::size_t frontier_inserts) const {
    emit({.time = t,
          .kind = EventKind::kReplan,
          .value = static_cast<double>(frontier_inserts)});
  }
  void reschedule_tick(double t, std::size_t index) const {
    emit({.time = t,
          .kind = EventKind::kRescheduleTick,
          .value = static_cast<double>(index)});
  }
  void mode_change(double t, int new_mode) const {
    emit({.time = t,
          .kind = EventKind::kModeChange,
          .value = static_cast<double>(new_mode)});
  }
  void straggler_respawn(double t, TaskId task, WorkerId w, int index) const {
    emit({.time = t,
          .kind = EventKind::kStragglerRespawn,
          .task = task,
          .worker = w,
          .value = static_cast<double>(index)});
  }

 private:
  EventSink* sink_ = nullptr;
};

}  // namespace hp::obs
