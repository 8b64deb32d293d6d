// The shared scheduler dispatch (runtime/dispatch.hpp): the name table, the
// entry point and options each scheduler gets, and when a static plan is
// replayed and what the sink then receives.

#include "runtime/dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "core/heteroprio_dag.hpp"
#include "fault/replay.hpp"
#include "linalg/cholesky.hpp"
#include "model/generators.hpp"
#include "obs/recorder.hpp"
#include "obs/replay.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

const Platform kPlatform(4, 2);

TaskGraph cholesky(RankScheme rank) {
  TaskGraph g = cholesky_dag(6);
  assign_priorities(g, rank);
  return g;
}

TaskGraph independent() {
  util::Rng rng(17);
  UniformGenParams params;
  params.num_tasks = 40;
  const Instance instance = uniform_instance(params, rng);
  TaskGraph g("independent");
  for (const Task& t : instance.tasks()) g.add_task(t);
  g.finalize();
  return g;
}

void expect_identical(const Schedule& got, const Schedule& want,
                      SchedulerId id) {
  std::string why;
  EXPECT_TRUE(identical_schedules(got, want, &why))
      << scheduler_name(id) << ": " << why;
}

TEST(Dispatch, NamesAreTheCliSpellingsAndUnknownNamesAreRejected) {
  const char* const names[] = {"hp", "hp-nospol", "heft", "dualhp"};
  for (int i = 0; i < kNumSchedulers; ++i) {
    const auto id = static_cast<SchedulerId>(i);
    EXPECT_STREQ(scheduler_name(id), names[i]);
    SchedulerId back{};
    ASSERT_TRUE(scheduler_from_name(names[i], &back));
    EXPECT_EQ(back, id);
  }
  SchedulerId untouched = SchedulerId::kHeft;
  for (const char* name : {"", "HP", "heteroprio", "dualhp ", "online-eft"}) {
    EXPECT_FALSE(scheduler_from_name(name, &untouched)) << name;
  }
  EXPECT_EQ(untouched, SchedulerId::kHeft);
}

TEST(Dispatch, HeteroPrioGetsItsSpoliationFlagAndEntryPoint) {
  const TaskGraph dag = cholesky(RankScheme::kMin);
  const TaskGraph flat = independent();
  for (const SchedulerId id : {SchedulerId::kHp, SchedulerId::kHpNoSpol}) {
    HeteroPrioOptions o;
    o.enable_spoliation = id == SchedulerId::kHp;
    HeteroPrioStats stats;
    const RunResult on_dag = run_scheduler(id, dag, kPlatform);
    expect_identical(on_dag.schedule, heteroprio_dag(dag, kPlatform, o, &stats),
                     id);
    EXPECT_EQ(on_dag.stats.spoliations, stats.spoliations);
    const RunResult on_flat = run_scheduler(id, flat, kPlatform);
    expect_identical(on_flat.schedule,
                     heteroprio(flat.tasks(), kPlatform, o, &stats), id);
    EXPECT_EQ(on_flat.stats.spoliations, stats.spoliations);
  }
}

TEST(Dispatch, StaticPlannersGetTheRankAndTheirEntryPoint) {
  const TaskGraph dag = cholesky(RankScheme::kMin);
  const TaskGraph flat = independent();
  expect_identical(
      run_scheduler(SchedulerId::kHeft, dag, kPlatform,
                    {.rank = RankScheme::kMin})
          .schedule,
      heft(dag, kPlatform, {.rank = RankScheme::kMin}), SchedulerId::kHeft);
  expect_identical(
      run_scheduler(SchedulerId::kHeft, flat, kPlatform,
                    {.rank = RankScheme::kMin})
          .schedule,
      heft_independent(flat.tasks(), kPlatform, {.rank = RankScheme::kMin}),
      SchedulerId::kHeft);
  expect_identical(
      run_scheduler(SchedulerId::kDualHp, dag, kPlatform).schedule,
      dualhp_dag(dag, kPlatform), SchedulerId::kDualHp);
  expect_identical(
      run_scheduler(SchedulerId::kDualHp, flat, kPlatform).schedule,
      dualhp(flat.tasks(), kPlatform), SchedulerId::kDualHp);
}

TEST(Dispatch, FifoRankFallsBackToAvgForHeftAndReadyOrderForDualHp) {
  const TaskGraph g = cholesky(RankScheme::kFifo);
  const RunOptions fifo{.rank = RankScheme::kFifo};
  expect_identical(run_scheduler(SchedulerId::kHeft, g, kPlatform, fifo)
                       .schedule,
                   heft(g, kPlatform, {.rank = RankScheme::kAvg}),
                   SchedulerId::kHeft);
  expect_identical(run_scheduler(SchedulerId::kDualHp, g, kPlatform, fifo)
                       .schedule,
                   dualhp_dag(g, kPlatform, {.fifo_order = true}),
                   SchedulerId::kDualHp);
}

// No fault plan and no actual times: the planner's own schedule, and the
// sink gets that schedule replayed as a full event stream.
TEST(Dispatch, NoPlanNoActualTimesReturnsThePlannersOwnSchedule) {
  const TaskGraph g = cholesky(RankScheme::kMin);
  for (const SchedulerId id : {SchedulerId::kHeft, SchedulerId::kDualHp}) {
    const Schedule plan =
        id == SchedulerId::kHeft
            ? heft(g, kPlatform, {.rank = RankScheme::kMin})
            : dualhp_dag(g, kPlatform);
    obs::EventRecorder events;
    const RunResult run = run_scheduler(id, g, kPlatform, {.sink = &events});
    expect_identical(run.schedule, plan, id);
    EXPECT_EQ(run.stats.recovery, fault::RecoveryReport{});
    EXPECT_TRUE(std::ranges::equal(events.events(),
                                   obs::replay_schedule(plan, kPlatform)))
        << scheduler_name(id);
  }
}

// A non-null plan sends a static plan through the faulty replay even when
// the plan is empty, and the sink gets the replay's own events.
TEST(Dispatch, NonNullEmptyPlanGoesThroughTheReplay) {
  const TaskGraph g = cholesky(RankScheme::kMin);
  const fault::FaultPlan empty;
  for (const SchedulerId id : {SchedulerId::kHeft, SchedulerId::kDualHp}) {
    const Schedule plan = run_scheduler(id, g, kPlatform).schedule;
    const fault::FaultyReplayResult want =
        fault::execute_plan_with_faults(plan, g, kPlatform, empty);
    obs::EventRecorder events;
    const RunResult run =
        run_scheduler(id, g, kPlatform, {.faults = &empty, .sink = &events});
    expect_identical(run.schedule, want.schedule, id);
    EXPECT_EQ(run.stats.recovery, want.recovery);
    EXPECT_TRUE(std::ranges::equal(events.events(), want.events))
        << scheduler_name(id);
    // The replay synthesizes no ready events; the planners' stream does.
    EXPECT_EQ(events.count(obs::EventKind::kReady), 0u);
  }
}

// Actual times alone replay the plan under them; the sink gets the realized
// schedule replayed as a full event stream.
TEST(Dispatch, ActualTimesReplayTheStaticPlanUnderThem) {
  const TaskGraph g = cholesky(RankScheme::kMin);
  std::vector<Task> actual(g.tasks().begin(), g.tasks().end());
  for (std::size_t i = 0; i < actual.size(); i += 2) {
    actual[i].cpu_time *= 1.5;
    actual[i].gpu_time *= 1.5;
  }
  const fault::FaultPlan none;
  for (const SchedulerId id : {SchedulerId::kHeft, SchedulerId::kDualHp}) {
    const Schedule plan = run_scheduler(id, g, kPlatform).schedule;
    const fault::FaultyReplayResult want =
        fault::execute_plan_with_faults(plan, g, kPlatform, none, actual);
    obs::EventRecorder events;
    const RunResult run = run_scheduler(
        id, g, kPlatform, {.actual_times = actual, .sink = &events});
    expect_identical(run.schedule, want.schedule, id);
    EXPECT_GT(run.schedule.makespan(), plan.makespan()) << scheduler_name(id);
    EXPECT_TRUE(std::ranges::equal(
        events.events(), obs::replay_schedule(want.schedule, kPlatform)))
        << scheduler_name(id);
  }
}

}  // namespace
}  // namespace hp
