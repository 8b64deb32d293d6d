#include "comm/comm_sched.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baselines/heft.hpp"
#include "core/heteroprio_dag.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "sched/validate.hpp"
#include "schedule_checksum.hpp"

namespace hp {
namespace {

/// A link that costs exactly nothing: no latency, and with every payload
/// zero no bandwidth term either.
const CommModel kFreeComm{.bandwidth_mb_per_ms = 12.0, .latency_ms = 0.0};

std::vector<double> zero_payloads(const TaskGraph& g) {
  return std::vector<double>(g.size(), 0.0);
}

/// Cholesky, QR and LU at 4, 8 and 16 tiles on 4+2, 20+4 and 1+1 workers,
/// with min and avg ranks (priorities assigned with the same scheme).
template <typename F>
void for_each_zero_cost_case(F&& check) {
  using Builder = TaskGraph (*)(int, const TimingModel&);
  const std::pair<const char*, Builder> kernels[] = {
      {"cholesky", &cholesky_dag}, {"qr", &qr_dag}, {"lu", &lu_dag}};
  const Platform platforms[] = {Platform(4, 2), Platform(20, 4),
                                Platform(1, 1)};
  for (const auto& [name, build] : kernels) {
    for (int tiles : {4, 8, 16}) {
      for (RankScheme rank : {RankScheme::kMin, RankScheme::kAvg}) {
        TaskGraph g = build(tiles, TimingModel::chameleon_960());
        assign_priorities(g, rank);
        for (const Platform& platform : platforms) {
          SCOPED_TRACE(std::string(name) + " tiles " + std::to_string(tiles) +
                       " platform " + std::to_string(platform.cpus()) + "+" +
                       std::to_string(platform.gpus()) +
                       (rank == RankScheme::kMin ? " min" : " avg"));
          check(g, platform, rank);
        }
      }
    }
  }
}

TEST(CommModelTest, BoundaryCost) {
  CommModel comm;
  comm.bandwidth_mb_per_ms = 10.0;
  comm.latency_ms = 0.5;
  EXPECT_DOUBLE_EQ(comm.boundary_cost(20.0), 0.5 + 2.0);
}

TEST(CommModelTest, TransferTopology) {
  const Platform platform(2, 2);  // CPUs 0-1, GPUs 2-3
  CommModel comm;
  comm.bandwidth_mb_per_ms = 10.0;
  comm.latency_ms = 0.0;
  EXPECT_DOUBLE_EQ(comm.transfer_time(platform, 0, 1, 10.0), 0.0);  // CPU->CPU
  EXPECT_DOUBLE_EQ(comm.transfer_time(platform, 0, 2, 10.0), 1.0);  // CPU->GPU
  EXPECT_DOUBLE_EQ(comm.transfer_time(platform, 2, 0, 10.0), 1.0);  // GPU->CPU
  EXPECT_DOUBLE_EQ(comm.transfer_time(platform, 2, 3, 10.0), 2.0);  // GPU->GPU
  EXPECT_DOUBLE_EQ(comm.transfer_time(platform, 2, 2, 10.0), 0.0);  // same
  EXPECT_DOUBLE_EQ(comm.transfer_time(platform, 0, 2, 0.0), 0.0);   // empty
}

TEST(CommModelTest, UniformPayloads) {
  const TaskGraph g = cholesky_dag(4);
  const auto payloads = uniform_payloads(g, 7.03);
  EXPECT_EQ(payloads.size(), g.size());
  EXPECT_DOUBLE_EQ(payloads.front(), 7.03);
}

TEST(HeftComm, ZeroCostReducesToPlainHeft) {
  for_each_zero_cost_case([](const TaskGraph& g, const Platform& platform,
                             RankScheme rank) {
    const auto payloads = zero_payloads(g);
    const Schedule with_comm =
        heft_comm(g, platform, kFreeComm, payloads, {.rank = rank});
    const Schedule plain = heft(g, platform, {.rank = rank});
    EXPECT_EQ(schedule_checksum(with_comm), schedule_checksum(plain));
  });
}

TEST(HeftComm, TransfersDelaySuccessors) {
  // Chain a -> b; force a on CPU (GPU-hostile) and b on GPU (CPU-hostile):
  // b must start one boundary transfer after a ends.
  TaskGraph g("chain");
  const TaskId a = g.add_task(Task{1.0, 100.0});
  const TaskId b = g.add_task(Task{100.0, 1.0});
  g.add_edge(a, b);
  g.finalize();
  const Platform platform(1, 1);
  CommModel comm;
  comm.bandwidth_mb_per_ms = 1.0;
  comm.latency_ms = 0.5;
  const std::vector<double> payloads{2.0, 2.0};  // transfer = 2.5
  const Schedule s = heft_comm(g, platform, comm, payloads);
  EXPECT_EQ(platform.type_of(s.placement(a).worker), Resource::kCpu);
  EXPECT_EQ(platform.type_of(s.placement(b).worker), Resource::kGpu);
  EXPECT_DOUBLE_EQ(s.placement(b).start, 1.0 + 2.5);
}

TEST(HeftComm, ExpensiveTransfersKeepChainOnOneResource) {
  // With a huge transfer cost, moving b to its fast resource is not worth
  // it: HEFT keeps the chain local.
  TaskGraph g("chain");
  const TaskId a = g.add_task(Task{1.0, 3.0});
  const TaskId b = g.add_task(Task{2.0, 1.0});
  g.add_edge(a, b);
  g.finalize();
  const Platform platform(1, 1);
  CommModel comm;
  comm.bandwidth_mb_per_ms = 0.01;  // 100 ms per MB
  comm.latency_ms = 0.0;
  const std::vector<double> payloads{1.0, 1.0};
  const Schedule s = heft_comm(g, platform, comm, payloads);
  EXPECT_EQ(s.placement(a).worker, s.placement(b).worker);
}

TEST(HeteroPrioComm, PrecedenceAndExclusivityHold) {
  TaskGraph g = cholesky_dag(8);
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(4, 2);
  CommModel comm;
  const auto payloads = uniform_payloads(g);
  const Schedule s = heteroprio_comm(g, platform, comm, payloads);

  ASSERT_TRUE(s.complete());
  // Durations include staging, so check precedence and per-worker
  // exclusivity manually (placement length >= pure execution time).
  std::vector<std::vector<std::pair<double, double>>> busy(
      static_cast<std::size_t>(platform.workers()));
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    const Placement& p = s.placement(id);
    EXPECT_GE(p.end - p.start,
              Platform::time_on(g.task(id), platform.type_of(p.worker)) -
                  1e-9);
    busy[static_cast<std::size_t>(p.worker)].emplace_back(p.start, p.end);
    for (TaskId pred : g.predecessors(id)) {
      EXPECT_GE(p.start, s.placement(pred).end - 1e-9);
    }
  }
  for (auto& intervals : busy) {
    std::sort(intervals.begin(), intervals.end());
    for (std::size_t i = 1; i < intervals.size(); ++i) {
      EXPECT_GE(intervals[i].first, intervals[i - 1].second - 1e-9);
    }
  }
}

TEST(HeteroPrioComm, ZeroCostMatchesPlainHeteroPrio) {
  for_each_zero_cost_case([](const TaskGraph& g, const Platform& platform,
                             RankScheme) {
    const auto payloads = zero_payloads(g);
    HeteroPrioCommStats comm_stats;
    HeteroPrioStats plain_stats;
    const Schedule with_comm =
        heteroprio_comm(g, platform, kFreeComm, payloads, &comm_stats);
    const Schedule plain = heteroprio_dag(g, platform, {}, &plain_stats);
    EXPECT_EQ(schedule_checksum(with_comm), schedule_checksum(plain));
    EXPECT_EQ(comm_stats.spoliations, plain_stats.spoliations);
    EXPECT_EQ(comm_stats.transfer_time_total, 0.0);
  });
}

TEST(HeteroPrioComm, TransfersAccumulateInStats) {
  TaskGraph g = cholesky_dag(6);
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(4, 2);
  CommModel comm;
  const auto payloads = uniform_payloads(g);
  HeteroPrioCommStats stats;
  (void)heteroprio_comm(g, platform, comm, payloads, &stats);
  EXPECT_GT(stats.transfer_time_total, 0.0);
}

TEST(HeteroPrioComm, LocalityWindowReducesTransferTime) {
  TaskGraph g = cholesky_dag(12);
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(4, 2);
  CommModel comm;
  comm.bandwidth_mb_per_ms = 3.0;  // slow link: locality matters
  const auto payloads = uniform_payloads(g);
  HeteroPrioCommStats oblivious, aware;
  (void)heteroprio_comm(g, platform, comm, payloads, &oblivious);
  const Schedule s = heteroprio_comm(g, platform, comm, payloads, &aware,
                                     {.locality_window = 8});
  ASSERT_TRUE(s.complete());
  EXPECT_LT(aware.transfer_time_total, oblivious.transfer_time_total);
}

TEST(HeteroPrioComm, WindowOneMatchesDefault) {
  TaskGraph g = cholesky_dag(8);
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(4, 2);
  CommModel comm;
  const auto payloads = uniform_payloads(g);
  const double a = heteroprio_comm(g, platform, comm, payloads).makespan();
  const double b = heteroprio_comm(g, platform, comm, payloads, nullptr,
                                   {.locality_window = 1})
                       .makespan();
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(HeteroPrioComm, CostlierCommIncreasesMakespan) {
  TaskGraph g = cholesky_dag(10);
  assign_priorities(g, RankScheme::kMin);
  const Platform platform(4, 2);
  const auto payloads = uniform_payloads(g);
  CommModel fast;  // defaults ~12 MB/ms
  CommModel slow;
  slow.bandwidth_mb_per_ms = 1.0;
  const double fast_ms = heteroprio_comm(g, platform, fast, payloads).makespan();
  const double slow_ms = heteroprio_comm(g, platform, slow, payloads).makespan();
  EXPECT_GT(slow_ms, fast_ms);
}

}  // namespace
}  // namespace hp
