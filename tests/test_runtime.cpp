#include "runtime/stf_runtime.hpp"

#include <gtest/gtest.h>

#include "bounds/dag_lower_bound.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/kernel_timings.hpp"
#include "sched/validate.hpp"

namespace hp {

// Names the parameterized cases below after their scheduler.
void PrintTo(SchedulerId id, std::ostream* os) { *os << scheduler_name(id); }

}  // namespace hp

namespace hp::runtime {
namespace {

TEST(StfRuntime, ReadAfterWriteInference) {
  StfRuntime rt(Platform(1, 1));
  const DataHandle a = rt.register_data("a");
  const TaskId writer = rt.submit(Task{1.0, 1.0}, {W(a)});
  const TaskId reader = rt.submit(Task{1.0, 1.0}, {R(a)});
  rt.run();
  const auto succ = rt.graph().successors(writer);
  EXPECT_TRUE(std::find(succ.begin(), succ.end(), reader) != succ.end());
}

TEST(StfRuntime, ConcurrentReadersDoNotSerialize) {
  StfRuntime rt(Platform(2, 2));
  const DataHandle a = rt.register_data();
  rt.submit(Task{1.0, 1.0}, {W(a)});
  const TaskId r1 = rt.submit(Task{1.0, 1.0}, {R(a)});
  const TaskId r2 = rt.submit(Task{1.0, 1.0}, {R(a)});
  rt.run();
  const auto succ1 = rt.graph().successors(r1);
  EXPECT_TRUE(std::find(succ1.begin(), succ1.end(), r2) == succ1.end());
}

TEST(StfRuntime, WriteAfterReadSerializes) {
  StfRuntime rt(Platform(2, 2));
  const DataHandle a = rt.register_data();
  rt.submit(Task{1.0, 1.0}, {W(a)});
  const TaskId reader = rt.submit(Task{1.0, 1.0}, {R(a)});
  const TaskId writer2 = rt.submit(Task{1.0, 1.0}, {RW(a)});
  rt.run();
  const auto succ = rt.graph().successors(reader);
  EXPECT_TRUE(std::find(succ.begin(), succ.end(), writer2) != succ.end());
}

TEST(StfRuntime, WriteAfterWriteSerializes) {
  StfRuntime rt(Platform(2, 2));
  const DataHandle a = rt.register_data();
  const TaskId w1 = rt.submit(Task{1.0, 1.0}, {W(a)});
  const TaskId w2 = rt.submit(Task{1.0, 1.0}, {W(a)});
  rt.run();
  const auto succ = rt.graph().successors(w1);
  EXPECT_TRUE(std::find(succ.begin(), succ.end(), w2) != succ.end());
}

TEST(StfRuntime, IndependentDataIndependentTasks) {
  StfRuntime rt(Platform(2, 2));
  const DataHandle a = rt.register_data();
  const DataHandle b = rt.register_data();
  rt.submit(Task{3.0, 3.0}, {RW(a)});
  rt.submit(Task{3.0, 3.0}, {RW(b)});
  EXPECT_DOUBLE_EQ(rt.run(), 3.0);  // run in parallel
  EXPECT_EQ(rt.graph().num_edges(), 0u);
}

/// Submit a tiny tiled Cholesky through the STF API and check it against
/// every scheduler the runtime is exercised with.
class StfCholesky : public ::testing::TestWithParam<SchedulerId> {
 protected:
  static void submit_cholesky(StfRuntime& rt, int tiles) {
    const TimingModel model = TimingModel::chameleon_960();
    std::vector<std::vector<DataHandle>> tile(
        static_cast<std::size_t>(tiles),
        std::vector<DataHandle>(static_cast<std::size_t>(tiles), kInvalidData));
    for (int i = 0; i < tiles; ++i) {
      for (int j = 0; j <= i; ++j) {
        tile[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
            rt.register_data("A" + std::to_string(i) + std::to_string(j));
      }
    }
    auto handle = [&](int i, int j) {
      return tile[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
    };
    for (int k = 0; k < tiles; ++k) {
      rt.submit(model.make_task(KernelKind::kPotrf), {RW(handle(k, k))});
      for (int i = k + 1; i < tiles; ++i) {
        rt.submit(model.make_task(KernelKind::kTrsm),
                  {R(handle(k, k)), RW(handle(i, k))});
      }
      for (int i = k + 1; i < tiles; ++i) {
        rt.submit(model.make_task(KernelKind::kSyrk),
                  {R(handle(i, k)), RW(handle(i, i))});
        for (int j = k + 1; j < i; ++j) {
          rt.submit(model.make_task(KernelKind::kGemm),
                    {R(handle(i, k)), R(handle(j, k)), RW(handle(i, j))});
        }
      }
    }
  }
};

TEST_P(StfCholesky, MatchesGeneratorDagAndSchedulesValidly) {
  RuntimeOptions options;
  options.scheduler = GetParam();
  StfRuntime rt(Platform(4, 2), options);
  submit_cholesky(rt, 6);
  const double makespan = rt.run();

  // Same structure as the built-in generator.
  EXPECT_EQ(rt.num_tasks(), cholesky_task_count(6));
  EXPECT_TRUE(rt.graph().is_dag());

  const auto check = check_schedule(rt.schedule(), rt.graph(), Platform(4, 2));
  EXPECT_TRUE(check.ok) << scheduler_name(GetParam()) << ": " << check.message;
  const double lb = dag_lower_bound(rt.graph(), Platform(4, 2)).value();
  EXPECT_GE(makespan, lb - 1e-9);
  EXPECT_LE(makespan, 4.0 * lb);
}

INSTANTIATE_TEST_SUITE_P(Policies, StfCholesky,
                         ::testing::Values(SchedulerId::kHp,
                                           SchedulerId::kHeft,
                                           SchedulerId::kDualHp));

TEST(StfRuntime, NoisyRunIsValidAgainstActualTimes) {
  RuntimeOptions options;
  options.noise_sigma = 0.3;
  options.noise_seed = 7;
  StfRuntime rt(Platform(2, 1), options);
  const DataHandle a = rt.register_data();
  for (int i = 0; i < 10; ++i) {
    rt.submit(Task{2.0, 0.5}, {RW(a)});
  }
  rt.run();
  const auto check =
      check_schedule(rt.schedule(), rt.actual_times(), Platform(2, 1));
  EXPECT_TRUE(check.ok) << check.message;
}

TEST(StfRuntime, NoiseIsDeterministicPerSeed) {
  auto run_once = [] {
    RuntimeOptions options;
    options.noise_sigma = 0.2;
    options.noise_seed = 11;
    StfRuntime rt(Platform(1, 1), options);
    const DataHandle a = rt.register_data();
    rt.submit(Task{5.0, 1.0}, {RW(a)});
    rt.submit(Task{5.0, 1.0}, {RW(a)});
    return rt.run();
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(StfRuntime, RunIsIdempotentUntilNextSubmit) {
  StfRuntime rt(Platform(1, 1));
  const DataHandle a = rt.register_data();
  rt.submit(Task{4.0, 1.0}, {RW(a)});
  const double first = rt.run();
  EXPECT_DOUBLE_EQ(rt.run(), first);
  rt.submit(Task{4.0, 1.0}, {RW(a)});
  EXPECT_GT(rt.run(), first);
}

TEST(StfRuntime, HeteroPrioStatsExposed) {
  StfRuntime rt(Platform(1, 1));
  // One GPU-friendly and one CPU-hostage task to force a spoliation.
  const DataHandle a = rt.register_data();
  const DataHandle b = rt.register_data();
  rt.submit(Task{10.0, 1.0}, {RW(a)});
  rt.submit(Task{10.0, 5.0}, {RW(b)});
  rt.run();
  EXPECT_EQ(rt.stats().spoliations, 1);
}

TEST(StfRuntime, PolicyNames) {
  EXPECT_EQ(RuntimeOptions{}.scheduler, SchedulerId::kHp);
  EXPECT_STREQ(scheduler_name(SchedulerId::kHp), "hp");
  EXPECT_STREQ(scheduler_name(SchedulerId::kHeft), "heft");
  EXPECT_STREQ(scheduler_name(SchedulerId::kDualHp), "dualhp");
}

}  // namespace
}  // namespace hp::runtime
