// FaultPlan composition with online arrivals (satellite of the online PR):
// task-targeted faults must defer to whenever the task actually runs — a
// plan "event" for a not-yet-arrived task is never dropped, because
// attempt_outcome is pure in (seed, task, attempt) and gets drawn at start
// time. The regression here pins the per-task failure/retry/abandon
// accounting of a staggered run against the all-at-t=0 run of the same
// plan, via the obs:: event streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/heteroprio.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "model/generators.hpp"
#include "obs/recorder.hpp"
#include "online/runtime.hpp"
#include "sched/validate.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

constexpr ScheduleCheckOptions kFaultyRun{
    .tol = 1e-9, .require_complete = false, .exact_durations = false};

std::vector<Task> mixed_tasks(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const Instance inst = bimodal_instance(n, 0.5, rng);
  return {inst.tasks().begin(), inst.tasks().end()};
}

/// Per-task (failures, retries, abandoned) pulled out of an event stream.
struct TaskFaultTrace {
  std::vector<int> failures;
  std::vector<int> retries;

  explicit TaskFaultTrace(std::size_t n) : failures(n, 0), retries(n, 0) {}

  static TaskFaultTrace from_events(std::span<const obs::Event> events,
                                    std::size_t n) {
    TaskFaultTrace trace(n);
    for (const obs::Event& e : events) {
      if (e.task < 0) continue;
      const auto i = static_cast<std::size_t>(e.task);
      if (e.kind == obs::EventKind::kTaskFail) ++trace.failures[i];
      if (e.kind == obs::EventKind::kTaskRetry) ++trace.retries[i];
    }
    return trace;
  }
};

TEST(OnlineFaults, StaggeredArrivalsSeeTheSameFailureSequence) {
  const std::vector<Task> tasks = mixed_tasks(60, 17);
  const Platform platform(3, 2);
  fault::FaultPlan plan;
  plan.set_task_faults(/*fail_prob=*/0.3, /*max_attempts=*/3,
                       /*retry_backoff=*/0.05, /*seed=*/23);

  // Batch reference: all at t=0.
  obs::EventRecorder batch_events;
  HeteroPrioOptions batch_opts;
  batch_opts.faults = &plan;
  batch_opts.sink = &batch_events;
  HeteroPrioStats batch_stats;
  const Schedule batch = heteroprio(tasks, platform, batch_opts, &batch_stats);

  // Same plan under heavily staggered arrivals.
  const online::ArrivalPlan arrivals =
      online::ArrivalPlan::generate({.rate = 0.5, .seed = 9}, tasks);
  ASSERT_FALSE(arrivals.all_at_origin());
  obs::EventRecorder online_events;
  online::OnlineOptions online_opts;
  online_opts.faults = &plan;
  online_opts.arrivals = &arrivals;
  online_opts.sink = &online_events;
  online::OnlineStats online_stats;
  const Schedule run =
      online::online_run(tasks, platform, online_opts, &online_stats);

  const auto check = check_schedule(run, tasks, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;

  // attempt_outcome is pure in (seed, task, attempt): per task, the
  // staggered run fails/retries exactly as often as the batch run, however
  // late the task arrived. (The schedules themselves differ — arrivals
  // change the interleaving — but the fault reality per task does not.)
  const auto batch_trace =
      TaskFaultTrace::from_events(batch_events.events(), tasks.size());
  const auto online_trace =
      TaskFaultTrace::from_events(online_events.events(), tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(batch_trace.failures[i], online_trace.failures[i]) << "task " << i;
    EXPECT_EQ(batch_trace.retries[i], online_trace.retries[i]) << "task " << i;
    // Abandonment is a per-task property of the draws, not of the timing.
    EXPECT_EQ(batch.placements()[i].placed(), run.placements()[i].placed())
        << "task " << i;
  }
  EXPECT_EQ(batch_stats.recovery.task_failures,
            online_stats.recovery.task_failures);
  EXPECT_EQ(batch_stats.recovery.task_retries,
            online_stats.recovery.task_retries);
  EXPECT_EQ(batch_stats.recovery.tasks_abandoned,
            online_stats.recovery.tasks_abandoned);
}

TEST(OnlineFaults, CrashBeforeAnyArrivalIsAppliedNotDropped) {
  // Worker 0 crashes at t=1; the first task arrives at t=5. The crash event
  // targets a worker (wall-clock anchored), so it applies even though no
  // task has arrived — all work lands on the survivor.
  const std::vector<Task> tasks{Task{2.0, 4.0}, Task{2.0, 4.0}};
  const Platform platform(2, 0);
  fault::FaultPlan plan;
  plan.add_crash(0, 1.0);
  online::ArrivalPlan arrivals;
  arrivals.set(0, 5.0);
  arrivals.set(1, 5.0);

  obs::EventRecorder recorder;
  online::OnlineOptions options;
  options.faults = &plan;
  options.arrivals = &arrivals;
  options.sink = &recorder;
  online::OnlineStats stats;
  const Schedule s = online::online_run(tasks, platform, options, &stats);

  EXPECT_EQ(stats.recovery.worker_crashes, 1);
  EXPECT_EQ(stats.recovery.crash_requeues, 0);  // nothing was in flight
  EXPECT_TRUE(s.complete());
  for (const Placement& p : s.placements()) EXPECT_EQ(p.worker, 1);
#ifndef HP_OBS_OFF  // probes compile to nothing without obs
  EXPECT_EQ(recorder.count(obs::EventKind::kWorkerCrash), 1u);
  // The crash precedes the first arrival in the recorded stream.
  const auto& events = recorder.events();
  const auto crash = std::find_if(
      events.begin(), events.end(), [](const obs::Event& e) {
        return e.kind == obs::EventKind::kWorkerCrash;
      });
  const auto arrival = std::find_if(
      events.begin(), events.end(), [](const obs::Event& e) {
        return e.kind == obs::EventKind::kTaskArrival;
      });
  ASSERT_NE(crash, events.end());
  ASSERT_NE(arrival, events.end());
  EXPECT_LT(crash - events.begin(), arrival - events.begin());
#endif  // HP_OBS_OFF
}

TEST(OnlineFaults, LateArrivalStillExhaustsItsRetryBudget) {
  // A task arriving at t=7 whose every attempt fails: the budget and the
  // abandonment accounting must match the batch semantics exactly, just
  // shifted in time.
  const std::vector<Task> tasks{Task{2.0, 2.0}};
  const Platform platform(1, 0);
  fault::FaultPlan plan;
  plan.set_task_faults(1.0, /*max_attempts=*/3, /*retry_backoff=*/0.25,
                       /*seed=*/5);
  online::ArrivalPlan arrivals;
  arrivals.set(0, 7.0);

  online::OnlineOptions options;
  options.faults = &plan;
  options.arrivals = &arrivals;
  online::OnlineStats stats;
  const Schedule s = online::online_run(tasks, platform, options, &stats);

  EXPECT_FALSE(s.complete());
  EXPECT_EQ(stats.recovery.task_failures, 3);
  EXPECT_EQ(stats.recovery.task_retries, 2);
  EXPECT_EQ(stats.recovery.tasks_abandoned, 1);
  EXPECT_EQ(stats.recovery.tasks_unfinished, 1);
  ASSERT_EQ(s.aborted().size(), 3u);
  EXPECT_GE(s.aborted()[0].start, 7.0);  // nothing ran before the arrival
  // Exponential backoff between attempts: 0.25, then 0.5.
  EXPECT_GE(s.aborted()[1].start, s.aborted()[0].abort_time + 0.25 - 1e-9);
  EXPECT_GE(s.aborted()[2].start, s.aborted()[1].abort_time + 0.5 - 1e-9);
}

TEST(OnlineFaults, RespawnsNeverChargeTheRetryBudget) {
  // Estimates 1.0, reality 30.0: the straggler scan keeps rescuing the
  // overdue attempt. With task faults configured (but probability 0 the
  // plan would be empty, so use a tiny one that never fires for task 0),
  // the respawn path must go through backoff without touching
  // failed_attempts — the task is never abandoned no matter how many
  // respawns happen before the budget stops them.
  const std::vector<Task> estimates{Task{1.0, 1.0}};
  const std::vector<Task> actuals{Task{30.0, 30.0}};
  const Platform platform(1, 0);
  fault::FaultPlan plan;
  plan.set_task_faults(1e-12, /*max_attempts=*/2, /*retry_backoff=*/0.5,
                       /*seed=*/3);
  ASSERT_FALSE(plan.empty());

  obs::EventRecorder recorder;
  online::OnlineOptions options;
  options.faults = &plan;
  options.actual_times = actuals;
  options.reschedule_period = 1.0;
  options.straggler_factor = 3.0;
  options.respawn_budget = 4;
  options.sink = &recorder;
  online::OnlineStats stats;
  const Schedule s = online::online_run(estimates, platform, options, &stats);

  EXPECT_EQ(stats.recovery.straggler_respawns, 4);
  EXPECT_EQ(stats.recovery.task_failures, 0);
  EXPECT_EQ(stats.recovery.tasks_abandoned, 0);
  ASSERT_TRUE(s.placements()[0].placed());  // budget exhausted, then it runs
  EXPECT_EQ(s.aborted().size(), 4u);
#ifndef HP_OBS_OFF
  EXPECT_EQ(recorder.count(obs::EventKind::kStragglerRespawn), 4u);
#endif  // HP_OBS_OFF
  EXPECT_EQ(stats.final_mode, online::Mode::kDegraded);
}

TEST(OnlineFaults, CrashTargetingAnUnarrivedTasksWorkerDefersItsEffect) {
  // The crash at t=2 idles worker 0 long before task 0 arrives at t=10.
  // The arrival must then dispatch to the survivor; the fault plan composed
  // with arrivals without dropping or double-applying anything.
  const std::vector<Task> tasks{Task{3.0, 6.0}};
  const Platform platform(2, 0);
  fault::FaultPlan plan;
  plan.add_crash(0, 2.0);
  online::ArrivalPlan arrivals;
  arrivals.set(0, 10.0);

  online::OnlineOptions options;
  options.faults = &plan;
  options.arrivals = &arrivals;
  online::OnlineStats stats;
  const Schedule s = online::online_run(tasks, platform, options, &stats);

  ASSERT_TRUE(s.placements()[0].placed());
  EXPECT_EQ(s.placements()[0].worker, 1);
  EXPECT_DOUBLE_EQ(s.placements()[0].start, 10.0);
  EXPECT_EQ(stats.recovery.worker_crashes, 1);
  EXPECT_EQ(stats.recovery.tasks_unfinished, 0);
}

TEST(OnlineFaults, AbandonedDagRootEndsATickedRun) {
  // Every attempt fails and none is retried, so the root of the DAG is
  // abandoned and nothing behind it is ever released. Reschedule ticks
  // used to re-arm each other forever while those tasks stayed
  // unaccounted; the run must end with all of them unfinished.
  TaskGraph g = cholesky_dag(4);
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(2, 1);
  fault::FaultPlan plan;
  plan.set_task_faults(/*fail_prob=*/1.0, /*max_attempts=*/1,
                       /*retry_backoff=*/0.0, /*seed=*/5);

  online::OnlineOptions options;
  options.faults = &plan;
  options.reschedule_period = 0.5;
  online::OnlineStats stats;
  const Schedule s = online::online_run_dag(g, platform, options, &stats);

  const auto check = check_schedule(s, g.tasks(), platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_EQ(stats.recovery.tasks_abandoned, 1);
  EXPECT_EQ(stats.recovery.tasks_unfinished,
            static_cast<int>(g.size()));
  EXPECT_TRUE(stats.recovery.degraded);
}

}  // namespace
}  // namespace hp
