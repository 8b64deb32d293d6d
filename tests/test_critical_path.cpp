// Critical-path attribution over executed schedules (sched/critical_path.hpp):
// the backward walk must produce a chain of segments tiling [0, makespan]
// exactly, attribute each hand-off to a dependency or worker-occupancy link,
// and aggregate compute/idle time consistently.

#include <gtest/gtest.h>

#include <string>

#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "obs/metrics.hpp"
#include "sched/critical_path.hpp"

namespace hp {
namespace {

constexpr double kEps = 1e-9;

void expect_tiles_makespan(const CriticalPathReport& report) {
  ASSERT_FALSE(report.segments.empty());
  EXPECT_NEAR(report.segments.front().begin, 0.0, kEps);
  EXPECT_NEAR(report.segments.back().end, report.makespan, kEps);
  for (std::size_t i = 0; i + 1 < report.segments.size(); ++i) {
    EXPECT_NEAR(report.segments[i].end, report.segments[i + 1].begin, kEps)
        << "hole between segments " << i << " and " << i + 1;
  }
  EXPECT_NEAR(report.compute_time + report.idle_time, report.makespan,
              kEps * std::max(1.0, report.makespan));
  EXPECT_GE(report.compute_fraction(), 0.0);
  EXPECT_LE(report.compute_fraction(), 1.0 + kEps);
}

TEST(CriticalPath, ChainIsFullyDependencyLinked) {
  // a -> b -> c with no resource contention: the critical path is the chain
  // itself, all compute, every non-anchor link a dependency.
  TaskGraph g("chain");
  const TaskId a = g.add_task(Task{2.0, 4.0});
  const TaskId b = g.add_task(Task{3.0, 6.0});
  const TaskId c = g.add_task(Task{1.0, 2.0});
  g.add_edge(a, b);
  g.add_edge(b, c);
  g.finalize();
  assign_priorities(g, RankScheme::kAvg);

  const Platform platform(4, 0);
  const Schedule schedule = heteroprio_dag(g, platform);
  const CriticalPathReport report =
      build_critical_path(schedule, g.tasks(), platform, &g);

  expect_tiles_makespan(report);
  ASSERT_EQ(report.segments.size(), 3u);
  EXPECT_DOUBLE_EQ(report.compute_fraction(), 1.0);
  EXPECT_EQ(report.idle_time, 0.0);
  EXPECT_EQ(report.dependency_links, 2u);
  EXPECT_EQ(report.worker_links, 0u);
  EXPECT_EQ(report.segments.front().task, a);
  EXPECT_EQ(report.segments.back().task, c);
  EXPECT_EQ(report.segments.back().link, CpLink::kMakespan);
}

TEST(CriticalPath, SerializedWorkerProducesWorkerLinks) {
  // Independent tasks on one CPU: the whole schedule is one busy lane, so
  // every hand-off is a worker link and the path is all compute.
  std::vector<Task> tasks(5);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    tasks[i] = Task{1.0 + static_cast<double>(i), 10.0};
  }
  const Platform platform(1, 0);
  const Schedule schedule = heteroprio(tasks, platform);
  const CriticalPathReport report =
      build_critical_path(schedule, tasks, platform);

  expect_tiles_makespan(report);
  ASSERT_EQ(report.segments.size(), tasks.size());
  EXPECT_DOUBLE_EQ(report.compute_fraction(), 1.0);
  EXPECT_EQ(report.worker_links, tasks.size() - 1);
  EXPECT_EQ(report.dependency_links, 0u);
}

TEST(CriticalPath, CholeskyReportIsConsistent) {
  TaskGraph g = cholesky_dag(8);
  assign_priorities(g, RankScheme::kAvg);
  const Platform platform(4, 2);
  const Schedule schedule = heteroprio_dag(g, platform);
  const CriticalPathReport report =
      build_critical_path(schedule, g.tasks(), platform, &g);

  expect_tiles_makespan(report);
  // Links partition the non-anchor segments.
  std::size_t makespan_links = 0;
  double kind_total = 0.0;
  for (const CpSegment& s : report.segments) {
    if (s.link == CpLink::kMakespan) ++makespan_links;
  }
  for (const double t : report.compute_by_kind) kind_total += t;
  EXPECT_EQ(makespan_links, 1u);
  EXPECT_NEAR(kind_total, report.compute_time,
              kEps * std::max(1.0, report.compute_time));

  // describe() renders the headline numbers.
  const std::string text = describe(report, g.tasks(), platform);
  EXPECT_NE(text.find("critical path"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
}

TEST(CriticalPath, RegistryExportCarriesTheAggregates) {
  TaskGraph g = cholesky_dag(4);
  assign_priorities(g, RankScheme::kAvg);
  const Platform platform(2, 1);
  const Schedule schedule = heteroprio_dag(g, platform);
  const CriticalPathReport report =
      build_critical_path(schedule, g.tasks(), platform, &g);

  obs::MetricsRegistry registry;
  add_to_registry(report, &registry);
  const double* segments = registry.find_gauge("cp_segments");
  ASSERT_NE(segments, nullptr);
  EXPECT_EQ(*segments, static_cast<double>(report.segments.size()));
  const double* fraction = registry.find_gauge("cp_compute_fraction");
  ASSERT_NE(fraction, nullptr);
  EXPECT_GE(*fraction, 0.0);
  EXPECT_LE(*fraction, 1.0);
}

TEST(CriticalPath, EmptyScheduleIsEmptyReport) {
  const Platform platform(1, 1);
  const Schedule schedule(0);
  const CriticalPathReport report =
      build_critical_path(schedule, {}, platform);
  EXPECT_TRUE(report.segments.empty());
  EXPECT_EQ(report.makespan, 0.0);
}

}  // namespace
}  // namespace hp
