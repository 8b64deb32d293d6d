#pragma once
// FNV-1a checksum of a schedule for golden-value regression tests: every
// placement (worker, start, end), every aborted segment and the makespan,
// hashed bit-for-bit. Inputs that are pure functions of fixed seeds give
// machine-independent checksums, so a recorded value pins an engine's
// decisions exactly. events_checksum does the same for a recorded event
// stream, which pins the order in which one instant drains.

#include <cstddef>
#include <cstdint>

#include <set>
#include <span>

#include "obs/event.hpp"
#include "sched/schedule.hpp"

namespace hp {

inline std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t schedule_checksum(const Schedule& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t t = 0; t < s.num_tasks(); ++t) {
    const Placement& p = s.placement(static_cast<TaskId>(t));
    h = fnv1a(h, &p.worker, sizeof p.worker);
    h = fnv1a(h, &p.start, sizeof p.start);
    h = fnv1a(h, &p.end, sizeof p.end);
  }
  for (const AbortedSegment& a : s.aborted()) {
    h = fnv1a(h, &a.task, sizeof a.task);
    h = fnv1a(h, &a.worker, sizeof a.worker);
    h = fnv1a(h, &a.start, sizeof a.start);
    h = fnv1a(h, &a.abort_time, sizeof a.abort_time);
  }
  const double mk = s.makespan();
  return fnv1a(h, &mk, sizeof mk);
}

inline std::uint64_t events_checksum(std::span<const obs::Event> events) {
  std::uint64_t h = 1469598103934665603ull;
  for (const obs::Event& e : events) {
    h = fnv1a(h, &e.time, sizeof e.time);
    h = fnv1a(h, &e.kind, sizeof e.kind);
    h = fnv1a(h, &e.task, sizeof e.task);
    h = fnv1a(h, &e.worker, sizeof e.worker);
    h = fnv1a(h, &e.victim, sizeof e.victim);
    h = fnv1a(h, &e.value, sizeof e.value);
  }
  return h;
}

/// Dispatch instants (times of queue-depth samples, after t=0) at which no
/// event that can open an instant was recorded: no completion, arrival,
/// crash, straggler edge, failure, retry, tick or deadline miss. Such an
/// instant exists only because an aborted attempt's old finish time woke
/// the loop. Runs that use this carry no deadlines, whose met instants
/// leave no event.
inline std::size_t wakeup_only_instants(std::span<const obs::Event> events) {
  using obs::EventKind;
  std::set<double> dispatched;
  std::set<double> triggered;
  for (const obs::Event& e : events) {
    switch (e.kind) {
      case EventKind::kQueueDepth:
        if (e.time > 0.0) dispatched.insert(e.time);
        break;
      case EventKind::kComplete:
      case EventKind::kTaskArrival:
      case EventKind::kWorkerCrash:
      case EventKind::kWorkerSlowBegin:
      case EventKind::kWorkerSlowEnd:
      case EventKind::kTaskFail:
      case EventKind::kTaskRetry:
      case EventKind::kRescheduleTick:
      case EventKind::kDeadlineMiss:
        triggered.insert(e.time);
        break;
      default:
        break;
    }
  }
  std::size_t count = 0;
  for (const double t : dispatched) count += triggered.count(t) == 0 ? 1 : 0;
  return count;
}

}  // namespace hp
