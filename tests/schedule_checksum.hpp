#pragma once
// FNV-1a checksum of a schedule for golden-value regression tests: every
// placement (worker, start, end), every aborted segment and the makespan,
// hashed bit-for-bit. Inputs that are pure functions of fixed seeds give
// machine-independent checksums, so a recorded value pins an engine's
// decisions exactly.

#include <cstddef>
#include <cstdint>

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

}  // namespace hp
