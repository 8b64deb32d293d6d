// Large-DAG smoke: the full pipeline (build -> priorities -> schedule ->
// validate) must handle an 11k-task Cholesky (N = 40 tiles) with every
// policy. The under-a-second budget per scheduler is timed separately by
// `large_dag_timing`, a perf-labeled ctest entry that runs alone.

#include <gtest/gtest.h>

#include <string>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "sched/validate.hpp"

namespace hp {
namespace {

TEST(LargeDagSmoke, CholeskyN40AllSchedulers) {
  constexpr int kTiles = 40;
  const Platform platform(20, 4);
  TaskGraph graph = cholesky_dag(kTiles);
  assign_priorities(graph, RankScheme::kAvg);
  ASSERT_EQ(graph.size(), cholesky_task_count(kTiles));

  const auto run = [&](const std::string& name, auto&& schedule_fn) {
    SCOPED_TRACE(name);
    const Schedule schedule = schedule_fn();
    EXPECT_TRUE(check_schedule(schedule, graph, platform).ok);
    EXPECT_GT(schedule.makespan(), 0.0);
  };

  run("HeteroPrio", [&] { return heteroprio_dag(graph, platform); });
  run("HEFT", [&] { return heft(graph, platform); });
  run("DualHP", [&] { return dualhp_dag(graph, platform); });
}

}  // namespace
}  // namespace hp
