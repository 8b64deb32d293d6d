// Degraded-mode state machine and admission control: watermark hysteresis,
// shed/defer accounting against the obs:: event stream, deadline-miss
// bookkeeping, and byte-identical observability output under the TickClock.

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "obs/counters.hpp"
#include "obs/export_chrome.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "online/runtime.hpp"
#include "sched/validate.hpp"

namespace hp {
namespace {

constexpr ScheduleCheckOptions kOnlineRun{
    .tol = 1e-9, .require_complete = false, .exact_durations = false};

/// One slow CPU; 20 equal tasks trickling in fast. The worker takes 10 time
/// units per task, so the ready backlog climbs past any small watermark
/// while the first task runs.
struct SaturationFixture {
  std::vector<Task> tasks;
  Platform platform{1, 0};
  online::ArrivalPlan plan;

  SaturationFixture() {
    for (int i = 0; i < 20; ++i) {
      tasks.push_back(Task{10.0, 10.0});
      plan.set(static_cast<TaskId>(i), 0.01 * (i + 1));
    }
  }
};

TEST(OnlineDegraded, RejectPolicyShedsWithHysteresis) {
  SaturationFixture fx;
  obs::EventRecorder recorder;
  online::OnlineOptions options;
  options.arrivals = &fx.plan;
  options.watermark_high = 4;
  options.watermark_low = 2;
  options.shed_policy = online::ShedPolicy::kReject;
  options.sink = &recorder;
  online::OnlineStats stats;
  const Schedule s = online::online_run(fx.tasks, fx.platform, options, &stats);

  const auto check = check_schedule(s, fx.tasks, fx.platform, kOnlineRun);
  ASSERT_TRUE(check.ok) << check.message;

  // Arrivals 1..4 start or queue up; once the backlog holds 4 the runtime
  // sheds every later arrival. First task dispatched immediately, 4 queued,
  // 15 rejected.
  EXPECT_EQ(stats.tasks_arrived, 20u);
  EXPECT_EQ(stats.tasks_admitted, 5u);
  EXPECT_EQ(stats.tasks_rejected, 15u);
  EXPECT_EQ(stats.tasks_deferred, 0u);

  // Zero silent drops: every task is accounted exactly once.
  std::size_t placed = 0;
  for (const Placement& p : s.placements()) placed += p.placed() ? 1 : 0;
  EXPECT_EQ(placed + stats.tasks_rejected +
                static_cast<std::size_t>(stats.recovery.tasks_unfinished),
            fx.tasks.size());
  EXPECT_EQ(stats.recovery.tasks_unfinished, 0);

  // Mode walk: healthy -> degraded -> shedding when the backlog reaches 4,
  // back to degraded when it drains to 2, never healthy again.
  EXPECT_EQ(stats.final_mode, online::Mode::kDegraded);
  EXPECT_EQ(stats.mode_changes, 3u);
#ifndef HP_OBS_OFF  // probes compile to nothing without obs
  const auto& events = recorder.events();
  std::vector<int> modes;
  for (const obs::Event& e : events) {
    if (e.kind == obs::EventKind::kModeChange) {
      modes.push_back(static_cast<int>(e.value));
    }
  }
  ASSERT_EQ(modes.size(), 3u);
  EXPECT_EQ(modes[0], static_cast<int>(online::Mode::kDegraded));
  EXPECT_EQ(modes[1], static_cast<int>(online::Mode::kShedding));
  EXPECT_EQ(modes[2], static_cast<int>(online::Mode::kDegraded));

  // Rejected tasks never appear in the schedule or the start events.
  EXPECT_EQ(recorder.count(obs::EventKind::kTaskShed), 15u);
  EXPECT_EQ(recorder.count(obs::EventKind::kStart), 5u);
#endif  // HP_OBS_OFF
}

TEST(OnlineDegraded, DeferPolicyParksAndReAdmitsEverything) {
  SaturationFixture fx;
  obs::EventRecorder recorder;
  online::OnlineOptions options;
  options.arrivals = &fx.plan;
  options.watermark_high = 4;
  options.watermark_low = 2;
  options.shed_policy = online::ShedPolicy::kDefer;
  options.sink = &recorder;
  online::OnlineStats stats;
  const Schedule s = online::online_run(fx.tasks, fx.platform, options, &stats);

  // Deferred tasks are parked, re-admitted in FIFO order once the backlog
  // drains to the low watermark, and all complete.
  EXPECT_TRUE(s.complete());
  EXPECT_EQ(stats.tasks_arrived, 20u);
  EXPECT_EQ(stats.tasks_deferred, 15u);
  EXPECT_EQ(stats.tasks_rejected, 0u);
  EXPECT_EQ(stats.tasks_admitted, 20u);  // includes the re-admissions
#ifndef HP_OBS_OFF
  EXPECT_EQ(recorder.count(obs::EventKind::kTaskDeferred), 15u);
  EXPECT_EQ(recorder.count(obs::EventKind::kStart), 20u);
#endif  // HP_OBS_OFF

  // Re-admission refills the queue to the high watermark while deferred
  // tasks remain, so the mode ping-pongs shedding <-> degraded; it must end
  // degraded with the backlog drained.
  EXPECT_EQ(stats.final_mode, online::Mode::kDegraded);
  EXPECT_GE(stats.mode_changes, 4u);

#ifndef HP_OBS_OFF
  // FIFO: parked tasks re-enter the ready structure in arrival (= id) order,
  // visible as the order of their kReady events in the stream.
  TaskId last_readmitted = -1;
  for (const obs::Event& e : recorder.events()) {
    if (e.kind == obs::EventKind::kReady && e.task >= 5) {
      EXPECT_GT(e.task, last_readmitted);
      last_readmitted = e.task;
    }
  }
  EXPECT_EQ(last_readmitted, 19);
#endif  // HP_OBS_OFF
}

// Counter aggregation reads the recorded stream, so -DHP_OBS_OFF (which
// compiles the probes to nothing) removes the subject under test.
#ifndef HP_OBS_OFF
TEST(OnlineDegraded, CountersMatchTheEventStream) {
  SaturationFixture fx;
  fx.plan.set(5, fx.plan.arrival(5), /*rel_deadline=*/0.5);  // a sure miss
  obs::EventRecorder recorder;
  online::OnlineOptions options;
  options.arrivals = &fx.plan;
  options.watermark_high = 4;
  options.shed_policy = online::ShedPolicy::kReject;
  options.reschedule_period = 7.0;
  options.sink = &recorder;
  online::OnlineStats stats;
  (void)online::online_run(fx.tasks, fx.platform, options, &stats);

  const obs::SchedulerCounters counters =
      obs::counters_from_events(recorder.events(), fx.platform);
  EXPECT_EQ(counters.tasks_arrived,
            static_cast<long long>(stats.tasks_arrived));
  EXPECT_EQ(counters.tasks_shed,
            static_cast<long long>(stats.tasks_rejected));
  EXPECT_EQ(counters.tasks_deferred,
            static_cast<long long>(stats.tasks_deferred));
  EXPECT_EQ(counters.deadline_misses,
            static_cast<long long>(stats.deadline_misses));
  EXPECT_EQ(counters.replans, static_cast<long long>(stats.replans));
  EXPECT_EQ(counters.reschedule_ticks,
            static_cast<long long>(stats.reschedule_ticks));
  EXPECT_EQ(counters.mode_changes,
            static_cast<long long>(stats.mode_changes));
  EXPECT_GE(stats.deadline_misses, 1u);

  obs::MetricsRegistry registry;
  obs::add_to_registry(counters, &registry);
  for (const char* name :
       {"tasks_arrived", "tasks_shed", "deadline_misses", "mode_changes"}) {
    EXPECT_NE(registry.find_gauge(name), nullptr) << name;
  }
  EXPECT_EQ(*registry.find_gauge("tasks_shed"),
            static_cast<double>(stats.tasks_rejected));
}
#endif  // HP_OBS_OFF

TEST(OnlineDegraded, DeadlineMissesCountShedAndRunningTasks) {
  // Two tasks on one CPU, both arriving at t=0.01 with deadlines shorter
  // than one execution: the running task misses (still in flight at its
  // deadline) and the queued task misses too.
  std::vector<Task> tasks{Task{10.0, 10.0}, Task{10.0, 10.0}};
  const Platform platform(1, 0);
  online::ArrivalPlan plan;
  plan.set(0, 0.01, /*rel_deadline=*/1.0);
  plan.set(1, 0.01, /*rel_deadline=*/1.0);

  obs::EventRecorder recorder;
  online::OnlineOptions options;
  options.arrivals = &plan;
  options.sink = &recorder;
  online::OnlineStats stats;
  const Schedule s = online::online_run(tasks, platform, options, &stats);

  EXPECT_TRUE(s.complete());  // misses never cancel work
  EXPECT_EQ(stats.deadline_misses, 2u);
#ifndef HP_OBS_OFF
  EXPECT_EQ(recorder.count(obs::EventKind::kDeadlineMiss), 2u);
#endif  // HP_OBS_OFF
  EXPECT_EQ(stats.final_mode, online::Mode::kDegraded);
}

TEST(OnlineDegraded, RejectedTasksStillMissTheirDeadlines) {
  // A shed task never runs; its deadline fires after the run's last
  // placement and must still be counted (no silent drop extends to the
  // bookkeeping).
  SaturationFixture fx;
  for (int i = 0; i < 20; ++i) {
    fx.plan.set(static_cast<TaskId>(i), fx.plan.arrival(i),
                /*rel_deadline=*/400.0);  // generous: only shed tasks miss
  }
  online::OnlineOptions options;
  options.arrivals = &fx.plan;
  options.watermark_high = 4;
  options.shed_policy = online::ShedPolicy::kReject;
  online::OnlineStats stats;
  (void)online::online_run(fx.tasks, fx.platform, options, &stats);

  EXPECT_EQ(stats.tasks_rejected, 15u);
  EXPECT_EQ(stats.deadline_misses, 15u);  // exactly the shed tasks
}

TEST(OnlineDegraded, RejectedDagAncestorsLeaveTheirDescendantsUnfinished) {
  // A rejected task never completes, so its DAG descendants are never
  // released. The run must still end, with reschedule ticks armed too
  // (each tick used to re-arm the next while those tasks stayed
  // unaccounted), and report them as unfinished.
  TaskGraph g = cholesky_dag(8);
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(4, 2);
  online::ArrivalSpec spec;
  spec.rate = 5.0;
  spec.seed = 3;
  const online::ArrivalPlan plan =
      online::ArrivalPlan::generate(spec, g.tasks());

  for (const double period : {0.5, 0.0}) {
    SCOPED_TRACE(period);
    obs::EventRecorder recorder;
    online::OnlineOptions options;
    options.arrivals = &plan;
    options.reschedule_period = period;
    options.watermark_high = 2;
    options.shed_policy = online::ShedPolicy::kReject;
    options.sink = &recorder;
    online::OnlineStats stats;
    const Schedule s = online::online_run_dag(g, platform, options, &stats);

    const auto check = check_schedule(s, g.tasks(), platform, kOnlineRun);
    ASSERT_TRUE(check.ok) << check.message;
    std::size_t completed = 0;
    for (const Placement& p : s.placements()) completed += p.placed() ? 1 : 0;
    EXPECT_GT(stats.tasks_rejected, 0u);
    EXPECT_GT(stats.recovery.tasks_unfinished, 0);
    EXPECT_EQ(completed + stats.tasks_rejected +
                  static_cast<std::size_t>(stats.recovery.tasks_unfinished),
              g.size());
    EXPECT_EQ(stats.tasks_arrived, g.size());
    EXPECT_TRUE(stats.recovery.degraded);
    EXPECT_EQ(stats.reschedule_ticks > 0, period > 0.0);
#ifndef HP_OBS_OFF
    const obs::SchedulerCounters counters =
        obs::counters_from_events(recorder.events(), platform);
    EXPECT_EQ(counters.tasks_completed, static_cast<long long>(completed));
    EXPECT_EQ(counters.tasks_arrived,
              static_cast<long long>(stats.tasks_arrived));
    EXPECT_EQ(counters.tasks_shed,
              static_cast<long long>(stats.tasks_rejected));
    EXPECT_EQ(counters.tasks_deferred,
              static_cast<long long>(stats.tasks_deferred));
    EXPECT_EQ(counters.replans, static_cast<long long>(stats.replans));
    EXPECT_EQ(counters.reschedule_ticks,
              static_cast<long long>(stats.reschedule_ticks));
    EXPECT_EQ(counters.mode_changes,
              static_cast<long long>(stats.mode_changes));
    EXPECT_EQ(counters.degraded_runs, 1);
#endif  // HP_OBS_OFF
  }
}

TEST(OnlineDegraded, WatermarkLowDefaultsToHalfOfHigh) {
  SaturationFixture fx;
  obs::EventRecorder with_default, with_explicit;
  online::OnlineOptions options;
  options.arrivals = &fx.plan;
  options.watermark_high = 4;
  options.shed_policy = online::ShedPolicy::kDefer;
  options.sink = &with_default;
  const Schedule a = online::online_run(fx.tasks, fx.platform, options);
  options.watermark_low = 2;
  options.sink = &with_explicit;
  const Schedule b = online::online_run(fx.tasks, fx.platform, options);

  ASSERT_EQ(with_default.size(), with_explicit.size());
  for (std::size_t i = 0; i < with_default.size(); ++i) {
    EXPECT_EQ(with_default.events()[i], with_explicit.events()[i]) << i;
  }
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    EXPECT_EQ(a.placements()[i].start, b.placements()[i].start) << i;
  }
}

// The online runtime and serve::Service share this clamp: a low watermark
// at or above the high one would let one backlog both keep and clear
// shedding, flipping the mode twice per pop.
TEST(OnlineDegraded, EffectiveWatermarkLowClampsBelowHigh) {
  EXPECT_EQ(online::effective_watermark_low(0, 7), 0u);  // admission off
  EXPECT_EQ(online::effective_watermark_low(4, 0), 2u);  // default high / 2
  EXPECT_EQ(online::effective_watermark_low(4, 9), 3u);  // clamped
  EXPECT_EQ(online::effective_watermark_low(1, 0), 0u);
}

TEST(OnlineDegraded, TickClockRunsAreByteIdentical) {
  // Full observability attached (events + self-profiling under the tick
  // clock): two runs must produce byte-identical Chrome traces and counter
  // tables — the determinism contract the docs promise for recorded
  // online runs.
  SaturationFixture fx;
  const auto run_once = [&](std::string* chrome, std::string* registry) {
    obs::EventRecorder recorder;
    obs::TickClock clock;
    obs::MetricsCollector collector(&clock);
    online::OnlineOptions options;
    options.arrivals = &fx.plan;
    options.watermark_high = 4;
    options.shed_policy = online::ShedPolicy::kDefer;
    options.reschedule_period = 5.0;
    options.sink = &recorder;
    options.metrics = &collector;
    (void)online::online_run(fx.tasks, fx.platform, options);
    *chrome = obs::chrome_trace_from_events(recorder.events(), fx.platform,
                                            fx.tasks);
    obs::MetricsRegistry metrics;
    obs::add_to_registry(
        obs::counters_from_events(recorder.events(), fx.platform), &metrics);
    *registry = obs::counter_table(metrics);
  };
  std::string chrome_a, chrome_b, registry_a, registry_b;
  run_once(&chrome_a, &registry_a);
  run_once(&chrome_b, &registry_b);
  EXPECT_EQ(chrome_a, chrome_b);
  EXPECT_EQ(registry_a, registry_b);

  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(chrome_a, fx.platform, &error))
      << error;
}

}  // namespace
}  // namespace hp
