// Bitwise regression gate for static-plan replay. HEFT and DualHP plans are
// replayed under lognormal(0, 0.3) actual times through the failover replay
// with an empty FaultPlan, and every realized schedule is checksummed. The
// values were recorded from the former fault-free static-plan executor, so
// they pin that the single replay path reproduces it exactly: 2 planners x
// 5 inputs x 3 platforms x 20 actual-time seeds = 600 schedules. All inputs
// are pure functions of the seeds below, so the checksums are
// machine-independent.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "dag/ranking.hpp"
#include "fault/replay.hpp"
#include "linalg/cholesky.hpp"
#include "model/generators.hpp"
#include "schedule_checksum.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

const Platform kPlatforms[] = {Platform(4, 2), Platform(20, 4),
                               Platform(0, 3)};
constexpr int kSeeds = 20;

/// Replay inputs: Cholesky 4/6/10 tiles and independent uniform n=50/500.
std::vector<TaskGraph> replay_graphs() {
  std::vector<TaskGraph> graphs;
  for (int tiles : {4, 6, 10}) {
    TaskGraph g = cholesky_dag(tiles);
    assign_priorities(g, RankScheme::kAvg);
    graphs.push_back(std::move(g));
  }
  for (std::size_t n : {std::size_t{50}, std::size_t{500}}) {
    util::Rng rng(0x7e91a7u + n);
    const Instance inst = uniform_instance({.num_tasks = n}, rng);
    TaskGraph g("indep-" + std::to_string(n));
    for (const Task& t : inst.tasks()) g.add_task(t);
    g.finalize();
    graphs.push_back(std::move(g));
  }
  return graphs;
}

Schedule plan_for(int algo, const TaskGraph& g, const Platform& platform) {
  const bool independent = g.num_edges() == 0;
  if (algo == 0) {
    return independent ? heft_independent(g.tasks(), platform)
                       : heft(g, platform);
  }
  return independent ? dualhp(g.tasks(), platform) : dualhp_dag(g, platform);
}

std::vector<Task> lognormal_actuals(const TaskGraph& g, int seed) {
  util::Rng rng(0x5eedu + static_cast<std::uint64_t>(seed));
  std::vector<Task> actuals(g.tasks().begin(), g.tasks().end());
  for (Task& t : actuals) {
    t.cpu_time *= rng.lognormal(0.0, 0.3);
    t.gpu_time *= rng.lognormal(0.0, 0.3);
  }
  return actuals;
}

TEST(ReplayRegression, EmptyFaultPlanMatchesRecordedChecksums) {
  // [planner: HEFT, DualHP][input: chol4, chol6, chol10, indep50, indep500],
  // each folded over kPlatforms x kSeeds.
  const std::uint64_t golden[2][5] = {
      {0x4f3d8619e26d1da2ull, 0x85aa010ae198e499ull, 0x162fcc12354e2c05ull,
       0x96d9696279ab3b4aull, 0x4b218923b551ffdeull},
      {0x5ee307bf8e241de9ull, 0x1120f045a7dbdc80ull, 0xb328d6b7f578aeebull,
       0x0c1608544274d79full, 0x0b607920e36102d1ull},
  };
  const std::vector<TaskGraph> graphs = replay_graphs();
  for (int algo = 0; algo < 2; ++algo) {
    for (std::size_t gi = 0; gi < graphs.size(); ++gi) {
      const TaskGraph& g = graphs[gi];
      std::uint64_t h = 1469598103934665603ull;
      for (const Platform& platform : kPlatforms) {
        const Schedule plan = plan_for(algo, g, platform);
        for (int seed = 0; seed < kSeeds; ++seed) {
          const std::vector<Task> actuals = lognormal_actuals(g, seed);
          const fault::FaultyReplayResult replayed =
              fault::execute_plan_with_faults(plan, g, platform,
                                              fault::FaultPlan{}, actuals);
          ASSERT_FALSE(replayed.recovery.degraded) << g.name();
          const std::uint64_t c = schedule_checksum(replayed.schedule);
          h = fnv1a(h, &c, sizeof c);
        }
      }
      EXPECT_EQ(h, golden[algo][gi])
          << (algo == 0 ? "HEFT " : "DualHP ") << g.name();
    }
  }
}

}  // namespace
}  // namespace hp
