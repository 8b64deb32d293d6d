#include "core/heteroprio.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bounds/area_bound.hpp"
#include "obs/export_csv.hpp"
#include "obs/recorder.hpp"
#include "sched/validate.hpp"

namespace hp {
namespace {

TEST(HeteroPrio, EmptyInstance) {
  const std::vector<Task> tasks;
  const Schedule s = heteroprio(tasks, Platform(1, 1));
  EXPECT_DOUBLE_EQ(s.makespan(), 0.0);
}

TEST(HeteroPrio, SingleGpuFriendlyTaskGoesToGpu) {
  const std::vector<Task> tasks{Task{10.0, 1.0}};
  const Platform platform(1, 1);
  const Schedule s = heteroprio(tasks, platform);
  EXPECT_EQ(platform.type_of(s.placement(0).worker), Resource::kGpu);
  EXPECT_DOUBLE_EQ(s.makespan(), 1.0);
}

TEST(HeteroPrio, SingleCpuFriendlyTaskEndsOnCpu) {
  // The GPU grabs the queue head first, but an idle CPU immediately
  // spoliates it at t=0 (1.0 < 10.0).
  const std::vector<Task> tasks{Task{1.0, 10.0}};
  const Platform platform(1, 1);
  const Schedule s = heteroprio(tasks, platform);
  EXPECT_EQ(platform.type_of(s.placement(0).worker), Resource::kCpu);
  EXPECT_DOUBLE_EQ(s.makespan(), 1.0);
}

TEST(HeteroPrio, AffinitySplitsByAccelerationFactor) {
  // Two GPU-friendly, two CPU-friendly tasks; 2 CPUs + 2 GPUs.
  const std::vector<Task> tasks{
      Task{20.0, 1.0},  // rho 20
      Task{18.0, 1.0},  // rho 18
      Task{1.0, 5.0},   // rho 0.2
      Task{1.0, 4.0},   // rho 0.25
  };
  const Platform platform(2, 2);
  const Schedule s = heteroprio(tasks, platform);
  EXPECT_EQ(platform.type_of(s.placement(0).worker), Resource::kGpu);
  EXPECT_EQ(platform.type_of(s.placement(1).worker), Resource::kGpu);
  EXPECT_EQ(platform.type_of(s.placement(2).worker), Resource::kCpu);
  EXPECT_EQ(platform.type_of(s.placement(3).worker), Resource::kCpu);
  EXPECT_DOUBLE_EQ(s.makespan(), 1.0);
}

TEST(HeteroPrio, GpuTakesHighestRhoFirst) {
  // One GPU, three tasks with distinct rho; GPU must process them in
  // decreasing rho order.
  const std::vector<Task> tasks{
      Task{2.0, 1.0},   // rho 2
      Task{8.0, 1.0},   // rho 8
      Task{4.0, 1.0},   // rho 4
  };
  const Platform platform(0, 1);
  const Schedule s = heteroprio(tasks, platform);
  EXPECT_LT(s.placement(1).start, s.placement(2).start);
  EXPECT_LT(s.placement(2).start, s.placement(0).start);
}

TEST(HeteroPrio, CpuTakesLowestRhoFirst) {
  const std::vector<Task> tasks{
      Task{1.0, 2.0},   // rho 0.5
      Task{1.0, 8.0},   // rho 0.125
      Task{1.0, 4.0},   // rho 0.25
  };
  const Platform platform(1, 0);
  const Schedule s = heteroprio(tasks, platform);
  EXPECT_LT(s.placement(1).start, s.placement(2).start);
  EXPECT_LT(s.placement(2).start, s.placement(0).start);
}

TEST(HeteroPrio, PriorityBreaksTiesTowardGpuForHighRho) {
  // Equal rho >= 1: the highest-priority task must be taken by the GPU
  // first (queue head).
  std::vector<Task> tasks{
      Task{4.0, 1.0, /*priority=*/1.0},
      Task{4.0, 1.0, /*priority=*/5.0},
  };
  const Platform platform(0, 1);
  const Schedule s = heteroprio(tasks, platform);
  EXPECT_LT(s.placement(1).start, s.placement(0).start);
}

TEST(HeteroPrio, PriorityBreaksTiesTowardCpuForLowRho) {
  // Equal rho < 1: the highest-priority task sits at the queue *tail*,
  // which is where CPUs pop.
  std::vector<Task> tasks{
      Task{1.0, 4.0, /*priority=*/5.0},
      Task{1.0, 4.0, /*priority=*/1.0},
  };
  const Platform platform(1, 0);
  const Schedule s = heteroprio(tasks, platform);
  EXPECT_LT(s.placement(0).start, s.placement(1).start);
}

TEST(HeteroPrio, SpoliationRescuesStragglerOnSlowResource) {
  // 1 CPU + 1 GPU. Queue: [A (rho 10), B (rho 2)]. GPU takes A (1s);
  // CPU takes B from the tail (p=10). GPU idles at 1 and spoliates B,
  // finishing it at 1 + 5 = 6 < 10.
  const std::vector<Task> tasks{
      Task{10.0, 1.0},  // A
      Task{10.0, 5.0},  // B
  };
  const Platform platform(1, 1);
  HeteroPrioStats stats;
  const Schedule s = heteroprio(tasks, platform, {}, &stats);
  EXPECT_EQ(stats.spoliations, 1);
  ASSERT_EQ(s.aborted().size(), 1u);
  EXPECT_EQ(s.aborted()[0].task, 1);
  EXPECT_EQ(platform.type_of(s.placement(1).worker), Resource::kGpu);
  EXPECT_DOUBLE_EQ(s.makespan(), 6.0);

  const auto check = check_schedule(s, tasks, platform);
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(HeteroPrio, NoSpoliationWhenDisabled) {
  const std::vector<Task> tasks{
      Task{10.0, 1.0},
      Task{10.0, 5.0},
  };
  const Platform platform(1, 1);
  HeteroPrioStats stats;
  const Schedule s =
      heteroprio(tasks, platform, {.enable_spoliation = false}, &stats);
  EXPECT_EQ(stats.spoliations, 0);
  EXPECT_TRUE(s.aborted().empty());
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);  // B held hostage on the CPU
}

TEST(HeteroPrio, SpoliationRequiresStrictImprovement) {
  // Thm 8 geometry: restarting on the GPU finishes exactly when the CPU
  // would; no spoliation may happen.
  const double phi = 1.6180339887498949;
  const std::vector<Task> tasks{
      Task{phi, 1.0, /*priority=*/1.0},        // X -> CPU
      Task{1.0, 1.0 / phi, /*priority=*/2.0},  // Y -> GPU
  };
  HeteroPrioStats stats;
  const Schedule s = heteroprio(tasks, Platform(1, 1), {}, &stats);
  EXPECT_EQ(stats.spoliations, 0);
  EXPECT_NEAR(s.makespan(), phi, 1e-9);
}

TEST(HeteroPrio, FirstIdleTimeReported) {
  const std::vector<Task> tasks{Task{4.0, 2.0}, Task{4.0, 2.0}};
  const Platform platform(2, 2);  // more workers than tasks
  HeteroPrioStats stats;
  (void)heteroprio(tasks, platform, {}, &stats);
  EXPECT_DOUBLE_EQ(stats.first_idle_time, 0.0);
}

TEST(HeteroPrio, ListPropertyNoIdleWithNonEmptyQueue) {
  // With 1 GPU and many equal tasks, the GPU must run them back to back.
  const std::vector<Task> tasks(10, Task{5.0, 1.0});
  const Platform platform(0, 1);
  const Schedule s = heteroprio(tasks, platform);
  EXPECT_DOUBLE_EQ(s.makespan(), 10.0);
}

// The log renders the stream fed through the obs::Probe, so -DHP_OBS_OFF
// (which compiles out all event emission) legitimately leaves it empty.
#ifndef HP_OBS_OFF
TEST(HeteroPrio, ExecutionLogRecordsEvents) {
  const std::vector<Task> tasks{Task{10.0, 1.0}, Task{10.0, 5.0}};
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  (void)heteroprio(tasks, Platform(1, 1), options);
  const std::string text = obs::text_from_events(rec.events(), Platform(1, 1));
  EXPECT_NE(text.find("] start "), std::string::npos);
  EXPECT_NE(text.find("] complete "), std::string::npos);
  EXPECT_NE(text.find("] spoliate "), std::string::npos);
}
#endif  // HP_OBS_OFF

TEST(HeteroPrio, DeterministicAcrossRuns) {
  const std::vector<Task> tasks{
      Task{3.0, 1.0}, Task{5.0, 2.0}, Task{1.0, 2.0}, Task{2.0, 2.0},
  };
  const Platform platform(2, 1);
  const Schedule a = heteroprio(tasks, platform);
  const Schedule b = heteroprio(tasks, platform);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(a.placement(static_cast<TaskId>(i)).worker,
              b.placement(static_cast<TaskId>(i)).worker);
    EXPECT_DOUBLE_EQ(a.placement(static_cast<TaskId>(i)).start,
                     b.placement(static_cast<TaskId>(i)).start);
  }
}

TEST(HeteroPrio, VictimScanPrefersLatestCompletion) {
  // 2 CPUs run two CPU-hostile tasks with different completion times; the
  // single GPU must spoliate the later-finishing one first.
  const std::vector<Task> tasks{
      Task{30.0, 4.0},  // victim candidate, ECT 30
      Task{20.0, 4.0},  // ECT 20
      Task{100.0, 5.0},  // keeps GPU busy until 5
  };
  const Platform platform(2, 1);
  const Schedule s = heteroprio(tasks, platform);
  // GPU runs task 2 first (rho 20 highest), CPUs take tasks 0 and 1
  // (from the tail: rho 1.5 then 5... both CPU-bound).
  ASSERT_GE(s.aborted().size(), 1u);
  EXPECT_EQ(s.aborted()[0].task, 0);  // the ECT-30 task goes first
}

}  // namespace
}  // namespace hp
