#pragma once
// Schedule artifact produced by every scheduler in this library.
//
// A Schedule maps each task to a (worker, start, end) placement and records
// the aborted attempts caused by spoliation (§2.1: when a task is spoliated,
// the progress made on the slow resource is lost; the partial execution is
// kept here so that validity checking and the idle-time accounting of §6.2
// can see it).

#include <span>
#include <string>
#include <vector>

#include "model/platform.hpp"
#include "model/task.hpp"

namespace hp {

/// Final placement of a task.
struct Placement {
  WorkerId worker = -1;
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] bool placed() const noexcept { return worker >= 0; }
};

/// A partial execution killed by spoliation.
struct AbortedSegment {
  TaskId task = kInvalidTask;
  WorkerId worker = -1;
  double start = 0.0;
  double abort_time = 0.0;
};

class Schedule {
 public:
  Schedule() = default;
  explicit Schedule(std::size_t num_tasks) : placements_(num_tasks) {}

  [[nodiscard]] std::size_t num_tasks() const noexcept {
    return placements_.size();
  }

  /// Record the final placement of `task`. Overwrites any previous one.
  void place(TaskId task, WorkerId worker, double start, double end) {
    placements_[static_cast<std::size_t>(task)] = Placement{worker, start, end};
  }

  /// Record a partial execution of `task` aborted at `abort_time`.
  void add_aborted(TaskId task, WorkerId worker, double start,
                   double abort_time) {
    aborted_.push_back(AbortedSegment{task, worker, start, abort_time});
  }

  [[nodiscard]] const Placement& placement(TaskId task) const noexcept {
    return placements_[static_cast<std::size_t>(task)];
  }

  [[nodiscard]] std::span<const Placement> placements() const noexcept {
    return placements_;
  }
  [[nodiscard]] std::span<const AbortedSegment> aborted() const noexcept {
    return aborted_;
  }

  /// True iff every task has a placement.
  [[nodiscard]] bool complete() const noexcept;

  /// Latest end over all placements (and aborted segments).
  [[nodiscard]] double makespan() const noexcept;

  /// Number of spoliated (re-executed) tasks.
  [[nodiscard]] std::size_t spoliation_count() const noexcept {
    return aborted_.size();
  }

 private:
  std::vector<Placement> placements_;
  std::vector<AbortedSegment> aborted_;
};

/// Bitwise schedule equality: placements (worker/start/end) and aborted
/// segments. Fills `*why` with the first difference when provided.
[[nodiscard]] bool identical_schedules(const Schedule& a, const Schedule& b,
                                       std::string* why = nullptr);

}  // namespace hp
