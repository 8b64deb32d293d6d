#include "sched/validate.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace hp {
namespace {

std::vector<Task> two_tasks() {
  return {Task{2.0, 1.0}, Task{4.0, 2.0}};
}

TEST(Validate, AcceptsValidSchedule) {
  const auto tasks = two_tasks();
  const Platform platform(1, 1);
  Schedule s(2);
  s.place(0, 0, 0.0, 2.0);  // CPU: duration p=2
  s.place(1, 1, 0.0, 2.0);  // GPU: duration q=2
  const auto check = check_schedule(s, tasks, platform);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(Validate, RejectsUnplacedTask) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 2.0);
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
}

TEST(Validate, RejectsWrongDuration) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 1.5);  // p=2 but runs 1.5
  s.place(1, 1, 0.0, 2.0);
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
}

TEST(Validate, RejectsOverlapOnWorker) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 2.0);
  s.place(1, 0, 1.0, 5.0);  // overlaps task 0 on the same CPU
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
}

TEST(Validate, AcceptsZeroLengthPlacementAtASegmentBoundary) {
  // A zero-length task at the start or the end of another task on the same
  // worker occupies no time; try both id orders.
  const Platform platform(1, 0);
  for (const double at : {0.0, 1.0}) {
    for (const bool zero_first : {true, false}) {
      const TaskId zero = zero_first ? 0 : 1;
      std::vector<Task> tasks(2, Task{1.0, 1.0});
      tasks[static_cast<std::size_t>(zero)] = Task{0.0, 0.0};
      Schedule s(2);
      s.place(zero, 0, at, at);
      s.place(1 - zero, 0, 0.0, 1.0);
      const auto check = check_schedule(s, tasks, platform);
      EXPECT_TRUE(check.ok) << "at " << at << ": " << check.message;
    }
  }
}

TEST(Validate, RejectsZeroLengthPlacementInsideAnotherTask) {
  const Platform platform(1, 0);
  for (const bool zero_first : {true, false}) {
    const TaskId zero = zero_first ? 0 : 1;
    std::vector<Task> tasks(2, Task{2.0, 2.0});
    tasks[static_cast<std::size_t>(zero)] = Task{0.0, 0.0};
    Schedule s(2);
    s.place(zero, 0, 1.0, 1.0);
    s.place(1 - zero, 0, 0.0, 2.0);
    EXPECT_FALSE(check_schedule(s, tasks, platform).ok) << zero_first;
  }
}

TEST(Validate, RejectsInvalidWorker) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 5, 0.0, 2.0);
  s.place(1, 1, 0.0, 2.0);
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
}

TEST(Validate, RejectsNegativeStart) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, -1.0, 1.0);
  s.place(1, 1, 0.0, 2.0);
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
}

TEST(Validate, AcceptsAbortedSegmentShorterThanTask) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 2.0);
  s.place(1, 1, 1.0, 3.0);
  s.add_aborted(1, 0, 2.0, 3.0);  // task 1 ran 1.0 < p=4 on the CPU
  const auto check = check_schedule(s, tasks, Platform(1, 1));
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(Validate, RejectsAbortedSegmentLongerThanFullTime) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 2.0);
  s.place(1, 1, 0.0, 2.0);
  s.add_aborted(1, 1, 3.0, 6.0);  // ran 3.0 > q=2 on GPU
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
}

TEST(Validate, RejectsAbortedOverlapWithPlacement) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 2.0);
  s.place(1, 1, 0.0, 2.0);
  s.add_aborted(1, 0, 1.0, 2.5);  // overlaps task 0 on CPU 0
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
}

TEST(Validate, DagPrecedenceViolationDetected) {
  TaskGraph g("chain");
  const TaskId a = g.add_task(Task{1.0, 1.0});
  const TaskId b = g.add_task(Task{1.0, 1.0});
  g.add_edge(a, b);
  g.finalize();
  const Platform platform(1, 1);
  Schedule s(2);
  s.place(a, 0, 0.0, 1.0);
  s.place(b, 1, 0.5, 1.5);  // starts before predecessor ends
  EXPECT_FALSE(check_schedule(s, g, platform).ok);

  Schedule ok(2);
  ok.place(a, 0, 0.0, 1.0);
  ok.place(b, 1, 1.0, 2.0);
  const auto check = check_schedule(ok, g, platform);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(Validate, MultiAttemptRetrySegmentsAccepted) {
  // A faulty run: task 1 failed once on the GPU, was retried on the same
  // worker and completed. The aborted and final segments must not be
  // flagged as an overlap.
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 2.0);
  s.add_aborted(1, 1, 0.0, 1.0);  // attempt 0, killed after 1.0 < q=2
  s.place(1, 1, 1.5, 3.5);        // attempt 1 after a 0.5 backoff
  const auto check = check_schedule(s, tasks, Platform(1, 1));
  EXPECT_TRUE(check.ok) << check.message;

  // Attempts of one task still may not overlap each other.
  Schedule bad(2);
  bad.place(0, 0, 0.0, 2.0);
  bad.add_aborted(1, 1, 0.0, 1.0);
  bad.place(1, 1, 0.5, 2.5);
  EXPECT_FALSE(check_schedule(bad, tasks, Platform(1, 1)).ok);
}

TEST(Validate, RelaxedCompletenessAllowsUnplacedTasks) {
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 2.0);  // task 1 abandoned by a degraded run
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
  const ScheduleCheckOptions degraded{.require_complete = false};
  const auto check = check_schedule(s, tasks, Platform(1, 1), degraded);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(Validate, RelaxedCompletenessStillChecksWhatRan) {
  const auto tasks = two_tasks();
  const ScheduleCheckOptions degraded{.require_complete = false};
  Schedule s(2);
  s.place(0, 5, 0.0, 2.0);  // invalid worker is a violation regardless
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1), degraded).ok);
}

TEST(Validate, PlacedSuccessorOfUnplacedPredecessorRejected) {
  TaskGraph g("chain");
  const TaskId a = g.add_task(Task{1.0, 1.0});
  const TaskId b = g.add_task(Task{1.0, 1.0});
  g.add_edge(a, b);
  g.finalize();
  const ScheduleCheckOptions degraded{.require_complete = false};

  Schedule s(2);
  s.place(b, 1, 0.0, 1.0);  // b ran although its predecessor never did
  EXPECT_FALSE(check_schedule(s, g, Platform(1, 1), degraded).ok);

  Schedule ok(2);
  ok.place(a, 0, 0.0, 1.0);  // b abandoned: fine under the relaxation
  const auto check = check_schedule(ok, g, Platform(1, 1), degraded);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(Validate, RelaxedDurationsAcceptStretchedSegments) {
  // A straggler window stretched task 0's wall-clock duration beyond its
  // nominal p=2; exact_durations=false accepts it, the default rejects it.
  const auto tasks = two_tasks();
  Schedule s(2);
  s.place(0, 0, 0.0, 3.0);
  s.place(1, 1, 0.0, 2.0);
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
  const ScheduleCheckOptions stretched{.exact_durations = false};
  const auto check = check_schedule(s, tasks, Platform(1, 1), stretched);
  EXPECT_TRUE(check.ok) << check.message;

  // Aborted segments longer than the full time are fine when stretched...
  Schedule aborted(2);
  aborted.place(0, 0, 0.0, 3.0);
  aborted.place(1, 1, 4.0, 6.0);
  aborted.add_aborted(1, 1, 0.0, 3.5);  // ran 3.5 > q=2
  EXPECT_TRUE(check_schedule(aborted, tasks, Platform(1, 1), stretched).ok);

  // ...but negative-length segments never are.
  Schedule negative(2);
  negative.place(0, 0, 2.0, 1.0);
  negative.place(1, 1, 0.0, 2.0);
  EXPECT_FALSE(check_schedule(negative, tasks, Platform(1, 1), stretched).ok);
}

TEST(Validate, MismatchedTaskCountRejected) {
  const auto tasks = two_tasks();
  Schedule s(1);
  s.place(0, 0, 0.0, 2.0);
  EXPECT_FALSE(check_schedule(s, tasks, Platform(1, 1)).ok);
}

}  // namespace
}  // namespace hp
