// Online fault recovery: the HeteroPrio engine and the static failover
// replay facing crashes, stragglers and injected task failures. The first
// test is the load-bearing one — an absent or empty FaultPlan must be a
// strict no-op, bitwise identical to a run without the option.

#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "baselines/heft.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "fault/fault_plan.hpp"
#include "fault/replay.hpp"
#include "fuzz/generator.hpp"
#include "linalg/cholesky.hpp"
#include "obs/counters.hpp"
#include "obs/export_chrome.hpp"
#include "obs/recorder.hpp"
#include "runtime/stf_runtime.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

constexpr ScheduleCheckOptions kFaultyRun{
    .tol = 1e-9, .require_complete = false, .exact_durations = false};

void expect_identical_schedules(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    const Placement& pa = a.placements()[i];
    const Placement& pb = b.placements()[i];
    EXPECT_EQ(pa.worker, pb.worker) << "task " << i;
    EXPECT_EQ(pa.start, pb.start) << "task " << i;  // bitwise, no tolerance
    EXPECT_EQ(pa.end, pb.end) << "task " << i;
  }
  ASSERT_EQ(a.aborted().size(), b.aborted().size());
  for (std::size_t i = 0; i < a.aborted().size(); ++i) {
    EXPECT_EQ(a.aborted()[i].task, b.aborted()[i].task);
    EXPECT_EQ(a.aborted()[i].worker, b.aborted()[i].worker);
    EXPECT_EQ(a.aborted()[i].start, b.aborted()[i].start);
    EXPECT_EQ(a.aborted()[i].abort_time, b.aborted()[i].abort_time);
  }
}

TaskGraph ranked_cholesky(int tiles) {
  TaskGraph g = cholesky_dag(tiles);
  assign_priorities(g, RankScheme::kMin);
  return g;
}

TEST(FaultRecovery, EmptyPlanIsAStrictNoOp) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);

  obs::EventRecorder clean_events, faulty_events;
  HeteroPrioOptions clean;
  clean.sink = &clean_events;
  const Schedule reference = heteroprio_dag(g, platform, clean);

  const fault::FaultPlan empty_plan;  // also: p=0 task faults stay empty
  HeteroPrioOptions with_plan;
  with_plan.sink = &faulty_events;
  with_plan.faults = &empty_plan;
  HeteroPrioStats stats;
  const Schedule run = heteroprio_dag(g, platform, with_plan, &stats);

  expect_identical_schedules(reference, run);
  ASSERT_EQ(clean_events.size(), faulty_events.size());
  for (std::size_t i = 0; i < clean_events.size(); ++i) {
    EXPECT_EQ(clean_events.events()[i], faulty_events.events()[i]) << i;
  }
  EXPECT_EQ(stats.recovery, fault::RecoveryReport{});
}

TEST(FaultRecovery, EmptyPlanIsANoOpForIndependentTasks) {
  std::vector<Task> tasks;
  for (int i = 1; i <= 40; ++i) {
    tasks.push_back(Task{1.0 + 0.1 * i, 0.3 + 0.05 * (i % 7)});
  }
  const Platform platform(3, 2);
  const fault::FaultPlan empty_plan;
  HeteroPrioOptions with_plan;
  with_plan.faults = &empty_plan;
  expect_identical_schedules(heteroprio(tasks, platform),
                             heteroprio(tasks, platform, with_plan));
}

TEST(FaultRecovery, CrashedWorkerStopsAndWorkIsReassigned) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);
  const double horizon = heteroprio_dag(g, platform).makespan();

  fault::FaultPlan plan;
  const WorkerId crashed = 1;
  plan.add_crash(crashed, horizon * 0.3);

  HeteroPrioOptions options;
  options.faults = &plan;
  HeteroPrioStats stats;
  const Schedule s = heteroprio_dag(g, platform, options, &stats);

  const auto check = check_schedule(s, g, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(s.complete());  // 5 survivors absorb the lost worker
  EXPECT_FALSE(stats.recovery.degraded);
  EXPECT_EQ(stats.recovery.worker_crashes, 1);
  // Nothing ends on the crashed worker after its crash instant.
  for (const Placement& p : s.placements()) {
    if (p.worker == crashed) EXPECT_LE(p.end, horizon * 0.3 + 1e-9);
  }
}

TEST(FaultRecovery, CrashAbortsInFlightWorkAndRequeuesIt) {
  // One CPU, one GPU; a long task is running on the CPU when it crashes.
  const std::vector<Task> tasks{Task{10.0, 10.0}, Task{10.0, 10.0}};
  const Platform platform(1, 1);
  fault::FaultPlan plan;
  plan.add_crash(0, 4.0);  // CPU dies mid-task

  HeteroPrioOptions options;
  options.faults = &plan;
  HeteroPrioStats stats;
  const Schedule s = heteroprio(tasks, platform, options, &stats);

  const auto check = check_schedule(s, tasks, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(stats.recovery.worker_crashes, 1);
  EXPECT_EQ(stats.recovery.crash_requeues, 1);
  ASSERT_EQ(s.aborted().size(), 1u);
  EXPECT_EQ(s.aborted()[0].worker, 0);
  EXPECT_DOUBLE_EQ(s.aborted()[0].abort_time, 4.0);
  // Both tasks finished on the surviving GPU, serialized.
  EXPECT_EQ(s.placements()[0].worker, 1);
  EXPECT_EQ(s.placements()[1].worker, 1);
  EXPECT_DOUBLE_EQ(s.makespan(), 20.0);
}

TEST(FaultRecovery, AllGpusCrashingShrinksToHomogeneous) {
  const TaskGraph g = ranked_cholesky(6);
  const Platform platform(3, 2);
  const double horizon = heteroprio_dag(g, platform).makespan();

  fault::FaultPlan plan;
  plan.add_crash(3, horizon * 0.2);
  plan.add_crash(4, horizon * 0.25);

  HeteroPrioOptions options;
  options.faults = &plan;
  HeteroPrioStats stats;
  const Schedule s = heteroprio_dag(g, platform, options, &stats);

  const auto check = check_schedule(s, g, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(stats.recovery.worker_crashes, 2);
  for (const Placement& p : s.placements()) {
    if (platform.type_of(p.worker) == Resource::kGpu) {
      EXPECT_LE(p.end, horizon * 0.25 + 1e-9);
    }
  }
}

TEST(FaultRecovery, AllWorkersCrashingDegradesTheRun) {
  const std::vector<Task> tasks{Task{5.0, 5.0}, Task{5.0, 5.0},
                                Task{5.0, 5.0}, Task{5.0, 5.0}};
  const Platform platform(1, 1);
  fault::FaultPlan plan;
  plan.add_crash(0, 2.0);
  plan.add_crash(1, 3.0);

  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.faults = &plan;
  options.sink = &recorder;
  HeteroPrioStats stats;
  const Schedule s = heteroprio(tasks, platform, options, &stats);

  const auto check = check_schedule(s, tasks, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_FALSE(s.complete());
  EXPECT_TRUE(stats.recovery.degraded);
  EXPECT_EQ(stats.recovery.worker_crashes, 2);
  EXPECT_EQ(stats.recovery.tasks_unfinished, 4);
  EXPECT_EQ(recorder.count(obs::EventKind::kRunDegraded), 1u);
  EXPECT_EQ(recorder.count(obs::EventKind::kWorkerCrash), 2u);
}

TEST(FaultRecovery, StragglerWindowsStretchButEverythingCompletes) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);
  const double horizon = heteroprio_dag(g, platform).makespan();

  fault::FaultPlan plan;
  plan.add_straggler(0, 0.0, horizon * 0.5, 4.0);
  plan.add_straggler(4, horizon * 0.1, horizon * 0.4, 3.0);

  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.faults = &plan;
  options.sink = &recorder;
  HeteroPrioStats stats;
  const Schedule s = heteroprio_dag(g, platform, options, &stats);

  const auto check = check_schedule(s, g, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(s.complete());
  EXPECT_FALSE(stats.recovery.degraded);
  EXPECT_EQ(stats.recovery.straggler_windows, 2);
  EXPECT_EQ(recorder.count(obs::EventKind::kWorkerSlowBegin), 2u);
  EXPECT_EQ(recorder.count(obs::EventKind::kWorkerSlowEnd), 2u);
}

TEST(FaultRecovery, FailedAttemptsAreRetriedUntilSuccess) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);

  fault::FaultPlan plan;
  plan.set_task_faults(/*fail_prob=*/0.2, /*max_attempts=*/10,
                       /*retry_backoff=*/0.0, /*seed=*/7);

  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.faults = &plan;
  options.sink = &recorder;
  HeteroPrioStats stats;
  const Schedule s = heteroprio_dag(g, platform, options, &stats);

  const auto check = check_schedule(s, g, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(s.complete());
  EXPECT_FALSE(stats.recovery.degraded);
  EXPECT_GT(stats.recovery.task_failures, 0);
  EXPECT_EQ(stats.recovery.task_failures, stats.recovery.task_retries);
  EXPECT_EQ(recorder.count(obs::EventKind::kTaskFail),
            static_cast<std::size_t>(stats.recovery.task_failures));
  // Every failed attempt left an aborted segment strictly inside the run.
  EXPECT_GE(s.aborted().size(),
            static_cast<std::size_t>(stats.recovery.task_failures));
}

TEST(FaultRecovery, RetryBackoffDelaysTheNextAttempt) {
  const std::vector<Task> tasks{Task{4.0, 4.0}};
  const Platform platform(1, 0);
  fault::FaultPlan plan;
  plan.set_task_faults(1.0, 2, /*retry_backoff=*/0.5, /*seed=*/3);
  // Attempt 0 fails at some fraction of 4.0; the retry waits 0.5, then
  // attempt 1 fails too and the budget (2 attempts) is exhausted.
  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.faults = &plan;
  options.sink = &recorder;
  HeteroPrioStats stats;
  const Schedule s = heteroprio(tasks, platform, options, &stats);

  EXPECT_FALSE(s.complete());
  EXPECT_TRUE(stats.recovery.degraded);
  EXPECT_EQ(stats.recovery.task_failures, 2);
  EXPECT_EQ(stats.recovery.task_retries, 1);
  EXPECT_EQ(stats.recovery.tasks_abandoned, 1);
  ASSERT_EQ(s.aborted().size(), 2u);
  // The second attempt starts no earlier than abort + backoff.
  EXPECT_GE(s.aborted()[1].start, s.aborted()[0].abort_time + 0.5 - 1e-9);
}

TEST(FaultRecovery, ExhaustedRetryBudgetDegradesTheRun) {
  const std::vector<Task> tasks{Task{1.0, 1.0}, Task{2.0, 1.5},
                                Task{1.5, 0.5}};
  const Platform platform(2, 1);
  fault::FaultPlan plan;
  plan.set_task_faults(1.0, 3, 0.0, 11);  // every attempt fails

  HeteroPrioOptions options;
  options.faults = &plan;
  HeteroPrioStats stats;
  const Schedule s = heteroprio(tasks, platform, options, &stats);

  const auto check = check_schedule(s, tasks, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(stats.recovery.degraded);
  EXPECT_EQ(stats.recovery.tasks_abandoned, 3);
  EXPECT_EQ(stats.recovery.tasks_unfinished, 3);
  EXPECT_EQ(stats.recovery.task_failures, 9);  // 3 tasks x 3 attempts
  for (const Placement& p : s.placements()) EXPECT_FALSE(p.placed());
}

TEST(FaultRecovery, EngineRunsAreDeterministicForAGivenPlan) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);
  fault::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(fault::parse_spec(
      "crashes=1,stragglers=2,slow=3,taskfail=0.1,retries=4,seed=9", &spec,
      &error))
      << error;
  spec.horizon = heteroprio_dag(g, platform).makespan();
  const fault::FaultPlan plan = fault::FaultPlan::generate(spec, platform);

  obs::EventRecorder first, second;
  HeteroPrioOptions options;
  options.faults = &plan;
  options.sink = &first;
  const Schedule a = heteroprio_dag(g, platform, options);
  options.sink = &second;
  const Schedule b = heteroprio_dag(g, platform, options);

  expect_identical_schedules(a, b);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first.events()[i], second.events()[i]) << i;
  }
}

TEST(FaultRecovery, MixedFaultsStillYieldAValidRun) {
  const TaskGraph g = ranked_cholesky(10);
  const Platform platform(6, 2);
  fault::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(fault::parse_spec(
      "crashes=2,stragglers=3,slow=4,taskfail=0.05,retries=3,backoff=0.01,"
      "seed=21",
      &spec, &error))
      << error;
  spec.horizon = heteroprio_dag(g, platform).makespan();
  const fault::FaultPlan plan = fault::FaultPlan::generate(spec, platform);

  HeteroPrioOptions options;
  options.faults = &plan;
  HeteroPrioStats stats;
  const Schedule s = heteroprio_dag(g, platform, options, &stats);
  const auto check = check_schedule(s, g, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(s.complete() || stats.recovery.degraded);
  EXPECT_EQ(stats.recovery.worker_crashes, 2);
}

TEST(FaultRecovery, RandomPlanSweepKeepsRecoveryAccountsConsistent) {
  // Property sweep over fuzz-generated fault plans: whatever the plan does,
  // a degraded run must still pass validation with require_complete=false,
  // no task may fail more often than its retry budget, and every abandoned
  // task must have exhausted that budget exactly.
  fuzz::GenKnobs knobs;
  knobs.fault_fraction = 1.0;
  int faulty_runs = 0;
  for (std::uint64_t i = 0; i < 40 && faulty_runs < 15; ++i) {
    const fuzz::FuzzCase c = fuzz::generate_case(4242, i, knobs);
    if (!c.has_faults()) continue;
    ++faulty_runs;

    obs::EventRecorder events;
    HeteroPrioOptions options;
    options.faults = &c.faults;
    options.sink = &events;
    HeteroPrioStats stats;
    const Schedule s =
        c.is_dag() ? heteroprio_dag(c.graph, c.platform, options, &stats)
                   : heteroprio(c.graph.tasks(), c.platform, options, &stats);

    const auto check = check_schedule(s, c.graph, c.platform, kFaultyRun);
    ASSERT_TRUE(check.ok) << c.name << ": " << check.message;

    std::vector<int> fail_count(c.graph.size(), 0);
    for (const obs::Event& e : events.events()) {
      if (e.kind == obs::EventKind::kTaskFail && e.task >= 0) {
        ++fail_count[static_cast<std::size_t>(e.task)];
      }
    }
    const int budget = c.faults.max_attempts();
    int abandoned = 0;
    int unplaced = 0;
    for (std::size_t t = 0; t < c.graph.size(); ++t) {
      EXPECT_LE(fail_count[t], budget) << c.name << " task " << t;
      if (fail_count[t] == budget) {
        ++abandoned;
        EXPECT_FALSE(s.placements()[t].placed())
            << c.name << " task " << t
            << " exhausted its budget yet was placed";
      }
      if (!s.placements()[t].placed()) ++unplaced;
    }
    EXPECT_EQ(abandoned, stats.recovery.tasks_abandoned) << c.name;
    EXPECT_EQ(unplaced, stats.recovery.tasks_unfinished) << c.name;
    EXPECT_EQ(stats.recovery.degraded, unplaced > 0) << c.name;
  }
  EXPECT_GE(faulty_runs, 15);
}

TEST(FaultyReplay, StaticPlanSurvivesACrashViaFailover) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);
  const Schedule plan = heft(g, platform, {.rank = RankScheme::kMin});
  const double horizon = plan.makespan();

  fault::FaultPlan faults;
  faults.add_crash(0, horizon * 0.3);

  const auto result = fault::execute_plan_with_faults(plan, g, platform,
                                                      faults);
  const auto check = check_schedule(result.schedule, g, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  EXPECT_TRUE(result.schedule.complete());
  EXPECT_FALSE(result.recovery.degraded);
  EXPECT_EQ(result.recovery.worker_crashes, 1);
  for (const Placement& p : result.schedule.placements()) {
    if (p.worker == 0) EXPECT_LE(p.end, horizon * 0.3 + 1e-9);
  }
}

TEST(FaultyReplay, MatchesEngineFaultRealityAndStaysDeterministic) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);
  const Schedule plan = heft(g, platform, {.rank = RankScheme::kMin});

  fault::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(fault::parse_spec(
      "crashes=1,stragglers=2,slow=3,taskfail=0.08,retries=3,seed=17", &spec,
      &error))
      << error;
  spec.horizon = plan.makespan();
  const fault::FaultPlan faults = fault::FaultPlan::generate(spec, platform);

  const auto a = fault::execute_plan_with_faults(plan, g, platform, faults);
  const auto b = fault::execute_plan_with_faults(plan, g, platform, faults);
  expect_identical_schedules(a.schedule, b.schedule);
  EXPECT_EQ(a.recovery, b.recovery);
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i], b.events[i]) << i;
  }
  const auto check = check_schedule(a.schedule, g, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
  // The replay's event stream is time-ordered (sink contract).
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_LE(a.events[i - 1].time, a.events[i].time + 1e-12);
  }
}

TEST(FaultyReplay, AbandonedTaskCascadesToDependents) {
  TaskGraph g("chain");
  const TaskId a = g.add_task(Task{1.0, 1.0});
  const TaskId b = g.add_task(Task{1.0, 1.0});
  g.add_edge(a, b);
  g.finalize();
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(1, 1);
  const Schedule plan = heft(g, platform, {.rank = RankScheme::kMin});

  fault::FaultPlan faults;
  faults.set_task_faults(1.0, 2, 0.0, 5);  // every attempt fails

  const auto result = fault::execute_plan_with_faults(plan, g, platform,
                                                      faults);
  EXPECT_TRUE(result.recovery.degraded);
  EXPECT_EQ(result.recovery.tasks_unfinished, 2);
  EXPECT_FALSE(result.schedule.placements()[a].placed());
  EXPECT_FALSE(result.schedule.placements()[b].placed());
  const auto check = check_schedule(result.schedule, g, platform, kFaultyRun);
  ASSERT_TRUE(check.ok) << check.message;
}

TEST(FaultyReplay, ZeroTimePredecessorWithHigherIdRunsFirst) {
  // Task 1 takes no time and feeds task 0. HEFT plans both on the single
  // CPU at t=0, task 1 over [0,0] and task 0 over [0,1]; the replay must
  // queue the zero-length placement first or task 0 waits on it forever.
  TaskGraph g("zero-time");
  const TaskId a = g.add_task(Task{1.0, 1.0});
  const TaskId zero = g.add_task(Task{0.0, 0.0});
  g.add_edge(zero, a);
  g.finalize();
  const Platform platform(1, 0);
  const Schedule plan = heft(g, platform);
  ASSERT_EQ(plan.placement(zero).start, 0.0);
  ASSERT_EQ(plan.placement(a).start, 0.0);
  const auto plan_check = check_schedule(plan, g, platform);
  ASSERT_TRUE(plan_check.ok) << plan_check.message;

  const auto result = fault::execute_plan_with_faults(plan, g, platform,
                                                      fault::FaultPlan{});
  EXPECT_FALSE(result.recovery.degraded);
  EXPECT_EQ(result.recovery.tasks_unfinished, 0);
  EXPECT_TRUE(result.schedule.complete());
  EXPECT_EQ(result.schedule.placement(zero).end, 0.0);
  EXPECT_EQ(result.schedule.placement(a).start, 0.0);
  EXPECT_EQ(result.schedule.makespan(), 1.0);
  const auto check = check_schedule(result.schedule, g, platform);
  EXPECT_TRUE(check.ok) << check.message;
}

// Fault-free plan replay: the failover replay with an empty FaultPlan is
// the library's static-plan executor.
Schedule replay(const Schedule& plan, const TaskGraph& g,
                const Platform& platform, std::span<const Task> actuals = {}) {
  const auto result = fault::execute_plan_with_faults(
      plan, g, platform, fault::FaultPlan{}, actuals);
  EXPECT_EQ(result.recovery, fault::RecoveryReport{});
  return result.schedule;
}

TEST(Executor, ExactEstimatesReproducePlanMakespan) {
  const TaskGraph g = cholesky_dag(8);
  const Platform platform(4, 2);
  const Schedule plan = heft(g, platform, {.rank = RankScheme::kMin});
  const Schedule replayed = replay(plan, g, platform);
  const auto check = check_schedule(replayed, g, platform);
  ASSERT_TRUE(check.ok) << check.message;
  // Replay compacts idle gaps but never beats the plan's dependencies:
  // with exact times it matches the plan up to gap-compaction.
  EXPECT_LE(replayed.makespan(), plan.makespan() + 1e-9);
}

TEST(Executor, PreservesWorkerAssignment) {
  const TaskGraph g = cholesky_dag(6);
  const Platform platform(3, 1);
  const Schedule plan = heft(g, platform);
  const Schedule replayed = replay(plan, g, platform);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(replayed.placement(static_cast<TaskId>(i)).worker,
              plan.placement(static_cast<TaskId>(i)).worker);
  }
}

TEST(Executor, NoisyDurationsShiftExecution) {
  const TaskGraph g = cholesky_dag(6);
  const Platform platform(3, 1);
  const Schedule plan = heft(g, platform);

  std::vector<Task> actuals(g.tasks().begin(), g.tasks().end());
  util::Rng rng(9);
  for (Task& t : actuals) {
    t.cpu_time *= rng.lognormal(0.0, 0.3);
    t.gpu_time *= rng.lognormal(0.0, 0.3);
  }
  const Schedule replayed = replay(plan, g, platform, actuals);
  // Valid against the ACTUAL durations.
  const auto check = check_schedule(replayed, actuals, platform);
  ASSERT_TRUE(check.ok) << check.message;
  // Precedence still respected.
  for (std::size_t i = 0; i < g.size(); ++i) {
    for (TaskId pred : g.predecessors(static_cast<TaskId>(i))) {
      EXPECT_GE(replayed.placement(static_cast<TaskId>(i)).start,
                replayed.placement(pred).end - 1e-9);
    }
  }
}

TEST(Executor, ChainOnOneWorkerIsSequential) {
  TaskGraph g("chain");
  const TaskId a = g.add_task(Task{1.0, 10.0});
  const TaskId b = g.add_task(Task{2.0, 10.0});
  g.add_edge(a, b);
  g.finalize();
  const Platform platform(1, 1);
  Schedule plan(2);
  plan.place(a, 0, 0.0, 1.0);
  plan.place(b, 0, 1.0, 3.0);
  const Schedule replayed = replay(plan, g, platform);
  EXPECT_DOUBLE_EQ(replayed.placement(b).start, 1.0);
  EXPECT_DOUBLE_EQ(replayed.makespan(), 3.0);
}

TEST(Executor, CrossWorkerDependencyDelaysStart) {
  TaskGraph g("cross");
  const TaskId a = g.add_task(Task{4.0, 4.0});
  const TaskId b = g.add_task(Task{1.0, 1.0});
  g.add_edge(a, b);
  g.finalize();
  const Platform platform(1, 1);
  Schedule plan(2);
  plan.place(a, 0, 0.0, 4.0);
  plan.place(b, 1, 4.0, 5.0);
  // Double the actual duration of a: b must slide to start at 8.
  const std::vector<Task> actuals{Task{8.0, 8.0}, Task{1.0, 1.0}};
  const Schedule replayed = replay(plan, g, platform, actuals);
  EXPECT_DOUBLE_EQ(replayed.placement(b).start, 8.0);
  EXPECT_DOUBLE_EQ(replayed.makespan(), 9.0);
}

TEST(FaultRecovery, CountersPickUpTheFaultEventKinds) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);
  fault::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(fault::parse_spec(
      "crashes=1,stragglers=1,slow=4,taskfail=0.1,retries=5,seed=13", &spec,
      &error))
      << error;
  spec.horizon = heteroprio_dag(g, platform).makespan();
  const fault::FaultPlan plan = fault::FaultPlan::generate(spec, platform);

  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.faults = &plan;
  options.sink = &recorder;
  HeteroPrioStats stats;
  (void)heteroprio_dag(g, platform, options, &stats);

  const obs::SchedulerCounters counters =
      obs::counters_from_events(recorder.events(), platform);
  EXPECT_EQ(counters.worker_crashes, stats.recovery.worker_crashes);
  EXPECT_EQ(counters.straggler_windows, stats.recovery.straggler_windows);
  EXPECT_EQ(counters.task_failures, stats.recovery.task_failures);
  EXPECT_EQ(counters.task_retries, stats.recovery.task_retries);
  EXPECT_EQ(counters.degraded_runs, stats.recovery.degraded ? 1 : 0);

  obs::MetricsRegistry registry;
  obs::add_to_registry(counters, &registry);
  ASSERT_NE(registry.find_gauge("worker_crashes"), nullptr);
  EXPECT_EQ(*registry.find_gauge("worker_crashes"),
            static_cast<double>(counters.worker_crashes));
  ASSERT_NE(registry.find_gauge("task_failures"), nullptr);
  EXPECT_EQ(*registry.find_gauge("task_failures"),
            static_cast<double>(counters.task_failures));
}

TEST(FaultRecovery, FaultyTraceExportsValidChromeJson) {
  const TaskGraph g = ranked_cholesky(8);
  const Platform platform(4, 2);
  fault::FaultSpec spec;
  std::string error;
  ASSERT_TRUE(fault::parse_spec(
      "crashes=1,stragglers=1,slow=3,taskfail=0.1,retries=4,seed=29", &spec,
      &error))
      << error;
  spec.horizon = heteroprio_dag(g, platform).makespan();
  const fault::FaultPlan plan = fault::FaultPlan::generate(spec, platform);

  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.faults = &plan;
  options.sink = &recorder;
  (void)heteroprio_dag(g, platform, options);
  EXPECT_GT(recorder.count(obs::EventKind::kWorkerCrash), 0u);

  const std::string json =
      obs::chrome_trace_from_events(recorder.events(), platform, g.tasks());
  ASSERT_TRUE(obs::validate_chrome_trace(json, platform, &error)) << error;
}

TEST(FaultRecovery, RuntimeThreadsThePlanThroughAllPolicies) {
  using runtime::StfRuntime;
  const Platform platform(2, 1);

  for (const SchedulerId scheduler :
       {SchedulerId::kHp, SchedulerId::kHeft, SchedulerId::kDualHp}) {
    fault::FaultPlan plan;
    plan.add_crash(0, 1.0);

    runtime::RuntimeOptions options;
    options.scheduler = scheduler;
    options.faults = &plan;
    options.check_bounds = true;
    StfRuntime rt(platform, options);
    auto x = rt.register_data("x");
    auto y = rt.register_data("y");
    for (int i = 0; i < 12; ++i) {
      rt.submit(Task{1.0, 0.5}, {runtime::RW(i % 2 == 0 ? x : y)});
    }
    const double makespan = rt.run();
    EXPECT_GT(makespan, 0.0) << scheduler_name(scheduler);
    EXPECT_EQ(rt.recovery().worker_crashes, 1) << scheduler_name(scheduler);
    const auto check =
        check_schedule(rt.schedule(), rt.graph(), platform, kFaultyRun);
    EXPECT_TRUE(check.ok) << scheduler_name(scheduler) << ": " << check.message;
    // The watchdog judged the surviving (1 CPU, 1 GPU) shape; DAG verdicts
    // are advisory (a static failover replay may exceed phi legitimately).
    EXPECT_EQ(rt.bound_check().shape, obs::PlatformShape::kSingleSingle)
        << scheduler_name(scheduler);
    EXPECT_TRUE(rt.bound_check().advisory) << scheduler_name(scheduler);
  }
}

}  // namespace
}  // namespace hp
