#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>

namespace hp {

namespace {

std::string fmt(double value) {
  std::ostringstream oss;
  oss.precision(17);
  oss << value;
  return oss.str();
}

}  // namespace

bool Schedule::complete() const noexcept {
  return std::all_of(placements_.begin(), placements_.end(),
                     [](const Placement& p) { return p.placed(); });
}

double Schedule::makespan() const noexcept {
  double end = 0.0;
  for (const Placement& p : placements_) {
    if (p.placed()) end = std::max(end, p.end);
  }
  for (const AbortedSegment& a : aborted_) end = std::max(end, a.abort_time);
  return end;
}

bool identical_schedules(const Schedule& a, const Schedule& b,
                         std::string* why) {
  const auto differ = [&](const std::string& detail) {
    if (why != nullptr) *why = detail;
    return false;
  };
  if (a.num_tasks() != b.num_tasks()) return differ("task counts differ");
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    const Placement& pa = a.placements()[i];
    const Placement& pb = b.placements()[i];
    if (pa.worker != pb.worker || pa.start != pb.start || pa.end != pb.end) {
      return differ("task " + std::to_string(i) + ": (" +
                    std::to_string(pa.worker) + ", " + fmt(pa.start) + ", " +
                    fmt(pa.end) + ") vs (" + std::to_string(pb.worker) +
                    ", " + fmt(pb.start) + ", " + fmt(pb.end) + ")");
    }
  }
  if (a.aborted().size() != b.aborted().size()) {
    return differ("aborted-segment counts differ: " +
                  std::to_string(a.aborted().size()) + " vs " +
                  std::to_string(b.aborted().size()));
  }
  for (std::size_t i = 0; i < a.aborted().size(); ++i) {
    const AbortedSegment& sa = a.aborted()[i];
    const AbortedSegment& sb = b.aborted()[i];
    if (sa.task != sb.task || sa.worker != sb.worker ||
        sa.start != sb.start || sa.abort_time != sb.abort_time) {
      return differ("aborted segment " + std::to_string(i) + " differs");
    }
  }
  return true;
}

}  // namespace hp
