#include "obs/event.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baselines/heft.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "obs/counters.hpp"
#include "obs/export_csv.hpp"
#include "obs/recorder.hpp"
#include "sched/metrics.hpp"

namespace hp {
namespace {

using obs::EventKind;

// One task per resource class plus a spoliation candidate: a small run that
// exercises every decision branch of the engine.
std::vector<Task> mixed_tasks() {
  return {
      Task{10.0, 1.0},  // GPU-friendly
      Task{9.0, 1.0},   // GPU-friendly
      Task{1.0, 8.0},   // CPU-friendly
      Task{1.0, 7.0},   // CPU-friendly
  };
}

TEST(ObsEvents, EveryTaskGetsReadyStartComplete) {
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  const auto tasks = mixed_tasks();
  (void)heteroprio(tasks, Platform(2, 2), options);
  EXPECT_EQ(rec.count(EventKind::kReady), tasks.size());
  EXPECT_EQ(rec.count(EventKind::kStart), tasks.size());
  EXPECT_EQ(rec.count(EventKind::kComplete), tasks.size());
  EXPECT_EQ(rec.count(EventKind::kAbort), 0u);
}

TEST(ObsEvents, SpoliationEmitsAttemptAbortAndCommit) {
  // 1 CPU + 1 GPU, one CPU-friendly task: the GPU grabs it at t=0 and the
  // idle CPU immediately spoliates.
  const std::vector<Task> tasks{Task{1.0, 10.0}};
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  (void)heteroprio(tasks, Platform(1, 1), options);
  EXPECT_GE(rec.count(EventKind::kSpoliateAttempt), 1u);
  EXPECT_EQ(rec.count(EventKind::kSpoliateCommit), 1u);
  EXPECT_EQ(rec.count(EventKind::kAbort), 1u);
  // A commit names thief, victim and the stolen task.
  for (const obs::Event& e : rec.events()) {
    if (e.kind != EventKind::kSpoliateCommit) continue;
    EXPECT_EQ(e.task, 0);
    EXPECT_GE(e.worker, 0);
    EXPECT_GE(e.victim, 0);
    EXPECT_NE(e.worker, e.victim);
  }
}

TEST(ObsEvents, StreamIsTimeOrdered) {
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  TaskGraph graph = cholesky_dag(6);
  assign_priorities(graph, RankScheme::kMin);
  (void)heteroprio_dag(graph, Platform(3, 1), options);
  double prev = 0.0;
  for (const obs::Event& e : rec.events()) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
  }
}

TEST(ObsEvents, SinkDoesNotChangeTheSchedule) {
  const auto tasks = mixed_tasks();
  const Platform platform(1, 1);
  const Schedule plain = heteroprio(tasks, platform);
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  const Schedule observed = heteroprio(tasks, platform, options);
  ASSERT_EQ(plain.num_tasks(), observed.num_tasks());
  for (std::size_t i = 0; i < plain.num_tasks(); ++i) {
    const auto id = static_cast<TaskId>(i);
    EXPECT_EQ(plain.placement(id).worker, observed.placement(id).worker);
    EXPECT_DOUBLE_EQ(plain.placement(id).start, observed.placement(id).start);
    EXPECT_DOUBLE_EQ(plain.placement(id).end, observed.placement(id).end);
  }
}

TEST(ObsEvents, CountersMatchScheduleMetrics) {
  TaskGraph graph = cholesky_dag(6);
  assign_priorities(graph, RankScheme::kMin);
  const Platform platform(3, 1);
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  HeteroPrioStats stats;
  const Schedule s = heteroprio_dag(graph, platform, options, &stats);

  const obs::SchedulerCounters c =
      obs::counters_from_events(rec.events(), platform);
  const ScheduleMetrics m = compute_metrics(s, graph.tasks(), platform);

  // Event-derived counters must agree with the schedule-derived metrics on
  // everything both can see.
  EXPECT_EQ(c.tasks_completed,
            static_cast<long long>(m.cpu.tasks_completed +
                                   m.gpu.tasks_completed));
  EXPECT_EQ(c.aborts, static_cast<long long>(s.aborted().size()));
  EXPECT_EQ(c.spoliation_commits, static_cast<long long>(stats.spoliations));
  EXPECT_EQ(c.spoliation_attempts,
            static_cast<long long>(stats.spoliation_attempts));
  EXPECT_EQ(c.spoliation_skips,
            static_cast<long long>(stats.spoliation_skips));
  EXPECT_NEAR(c.makespan, s.makespan(), 1e-9);
  EXPECT_NEAR(c.busy_time[0], m.cpu.busy_time, 1e-9);
  EXPECT_NEAR(c.busy_time[1], m.gpu.busy_time, 1e-9);
  EXPECT_NEAR(c.aborted_time[0], m.cpu.aborted_time, 1e-9);
  EXPECT_NEAR(c.aborted_time[1], m.gpu.aborted_time, 1e-9);
  // And with the subset compute_metrics fills into its own counters field.
  EXPECT_EQ(m.counters.tasks_completed, c.tasks_completed);
  EXPECT_EQ(m.counters.aborts, c.aborts);
  EXPECT_NEAR(m.counters.idle_fraction[0], c.idle_fraction[0], 1e-9);
  EXPECT_NEAR(m.counters.idle_fraction[1], c.idle_fraction[1], 1e-9);
}

TEST(ObsEvents, QueueDepthAndIdleIntervalsAreRecorded) {
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  (void)heteroprio(mixed_tasks(), Platform(1, 1), options);
  EXPECT_GE(rec.count(EventKind::kQueueDepth), 1u);
  // Every start ends an idle interval (workers begin idle at t=0).
  EXPECT_EQ(rec.count(EventKind::kIdleEnd), rec.count(EventKind::kStart));
  const obs::SchedulerCounters c =
      obs::counters_from_events(rec.events(), Platform(1, 1));
  EXPECT_GE(c.peak_ready_depth, 1);
}

TEST(ObsEvents, TextLogProjectsTheRecordedStream) {
  // The execution log renders exactly the start/complete/abort/spoliate
  // events of the recorded stream, which also carries attempts, depths and
  // idle intervals.
  const std::vector<Task> tasks{Task{1.0, 10.0}};
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  (void)heteroprio(tasks, Platform(1, 1), options);
  const std::string text = obs::text_from_events(rec.events(), Platform(1, 1));
  const auto occurrences = [&text](const char* needle) {
    std::size_t n = 0;
    for (std::size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(occurrences("] start "), rec.count(EventKind::kStart));
  EXPECT_EQ(occurrences("] spoliate "), 1u);
  EXPECT_EQ(rec.count(EventKind::kSpoliateCommit), 1u);
  const std::size_t lines = occurrences("\n");
  EXPECT_EQ(lines, rec.count(EventKind::kStart) +
                       rec.count(EventKind::kComplete) +
                       rec.count(EventKind::kAbort) +
                       rec.count(EventKind::kSpoliateCommit));
  EXPECT_GT(rec.size(), lines);  // attempts, depths, idles
}

TEST(ObsEvents, StaticPlannerReplaysItsSchedule) {
  const auto tasks = mixed_tasks();
  const Platform platform(2, 2);
  obs::EventRecorder rec;
  HeftOptions options;
  options.sink = &rec;
  const Schedule s = heft_independent(tasks, platform, options);
  EXPECT_EQ(rec.count(EventKind::kStart), tasks.size());
  EXPECT_EQ(rec.count(EventKind::kComplete), tasks.size());
  const obs::SchedulerCounters c =
      obs::counters_from_events(rec.events(), platform);
  EXPECT_EQ(c.tasks_completed, static_cast<long long>(tasks.size()));
  EXPECT_NEAR(c.makespan, s.makespan(), 1e-9);
}

}  // namespace
}  // namespace hp
