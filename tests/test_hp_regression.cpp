// Regression harness for the optimized HeteroPrio engine: the incremental
// running-set / presorted ready-queue implementation (core/heteroprio.cpp)
// must produce bitwise-identical schedules to the straightforward reference
// engine it replaced (core/heteroprio_ref.cpp) — same placements, same
// aborted segments, same makespans, same counters — on a broad sample of
// random instances, with and without spoliation, in both victim orders, and
// in DAG mode. The recorded-checksum cases at the end pin the general
// loop's tie orders (schedule, counters and event stream) where no
// reference engine reaches: crashes, abandoned attempts, zero-length
// attempts and platforms wider than 64 workers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "core/heteroprio_ref.hpp"
#include "bounds/area_bound.hpp"
#include "dag/random_graphs.hpp"
#include "dag/ranking.hpp"
#include "fault/fault_plan.hpp"
#include "linalg/cholesky.hpp"
#include "model/generators.hpp"
#include "obs/recorder.hpp"
#include "sched/validate.hpp"
#include "schedule_checksum.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_identical(const Schedule& optimized, const Schedule& reference) {
  ASSERT_EQ(optimized.num_tasks(), reference.num_tasks());
  for (std::size_t t = 0; t < reference.num_tasks(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    const Placement& a = optimized.placement(static_cast<TaskId>(t));
    const Placement& b = reference.placement(static_cast<TaskId>(t));
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_TRUE(same_bits(a.start, b.start)) << a.start << " vs " << b.start;
    EXPECT_TRUE(same_bits(a.end, b.end)) << a.end << " vs " << b.end;
  }
  ASSERT_EQ(optimized.aborted().size(), reference.aborted().size());
  for (std::size_t i = 0; i < reference.aborted().size(); ++i) {
    SCOPED_TRACE("aborted segment " + std::to_string(i));
    const AbortedSegment& a = optimized.aborted()[i];
    const AbortedSegment& b = reference.aborted()[i];
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_TRUE(same_bits(a.start, b.start));
    EXPECT_TRUE(same_bits(a.abort_time, b.abort_time));
  }
  EXPECT_TRUE(same_bits(optimized.makespan(), reference.makespan()));
}

void expect_same_counters(const HeteroPrioStats& a, const HeteroPrioStats& b) {
  EXPECT_TRUE(same_bits(a.first_idle_time, b.first_idle_time));
  EXPECT_EQ(a.spoliations, b.spoliations);
  // spoliation_attempts intentionally differ: the optimized engine skips
  // (and counts separately) idle scans when the other resource is entirely
  // idle, so optimized attempts + skips >= reference attempts were scanned.
  EXPECT_EQ(a.spoliation_attempts + a.spoliation_skips,
            b.spoliation_attempts + b.spoliation_skips);
}

// 50 random instances x {spoliation on, off}: the ISSUE's regression gate.
TEST(HpRegression, FiftyRandomInstancesMatchReference) {
  for (int inst_idx = 0; inst_idx < 50; ++inst_idx) {
    // Vary the platform and the instance shape with the index.
    const Platform platform(2 + inst_idx % 7, 1 + inst_idx % 3);
    UniformGenParams params;
    params.num_tasks = 5 + static_cast<std::size_t>(inst_idx) * 7;
    params.accel_lo = (inst_idx % 2 == 0) ? 0.2 : 0.05;
    params.accel_hi = 5.0 + 5.0 * (inst_idx % 5);
    util::Rng rng(util::seed_from_cell(
        {static_cast<std::uint64_t>(inst_idx)}, /*salt=*/0x5e6d));
    const Instance inst = uniform_instance(params, rng);

    for (const bool spoliation : {true, false}) {
      SCOPED_TRACE("instance " + std::to_string(inst_idx) + " spoliation=" +
                   std::to_string(spoliation));
      HeteroPrioOptions options;
      options.enable_spoliation = spoliation;
      HeteroPrioStats opt_stats, ref_stats;
      const Schedule optimized =
          heteroprio(inst.tasks(), platform, options, &opt_stats);
      const Schedule reference =
          heteroprio_reference(inst.tasks(), platform, options, &ref_stats);
      expect_identical(optimized, reference);
      expect_same_counters(opt_stats, ref_stats);
      if (!spoliation) EXPECT_TRUE(optimized.aborted().empty());
    }
  }
}

// Both victim orders must survive the queue/running-set rewrite.
TEST(HpRegression, VictimOrdersMatchReference) {
  const Platform platform(6, 2);
  for (int inst_idx = 0; inst_idx < 10; ++inst_idx) {
    UniformGenParams params;
    params.num_tasks = 40 + static_cast<std::size_t>(inst_idx) * 11;
    util::Rng rng(util::seed_from_cell(
        {static_cast<std::uint64_t>(inst_idx)}, /*salt=*/0x7a11));
    const Instance inst = uniform_instance(params, rng);
    for (const VictimOrder order :
         {VictimOrder::kCompletionTime, VictimOrder::kPriority}) {
      SCOPED_TRACE("instance " + std::to_string(inst_idx) + " order=" +
                   std::to_string(static_cast<int>(order)));
      HeteroPrioOptions options;
      options.victim_order = order;
      expect_identical(heteroprio(inst.tasks(), platform, options),
                       heteroprio_reference(inst.tasks(), platform, options));
    }
  }
}

// Imperfect estimates (actual != estimated times) exercise the believed-
// finish bookkeeping: the cached victim keys must still mirror the
// reference's from-scratch recomputation.
TEST(HpRegression, NoisyActualTimesMatchReference) {
  const Platform platform(5, 2);
  for (int inst_idx = 0; inst_idx < 10; ++inst_idx) {
    UniformGenParams params;
    params.num_tasks = 60;
    util::Rng rng(util::seed_from_cell(
        {static_cast<std::uint64_t>(inst_idx)}, /*salt=*/0xacca));
    const Instance inst = uniform_instance(params, rng);
    std::vector<Task> actuals(inst.tasks().begin(), inst.tasks().end());
    for (Task& t : actuals) {
      t.cpu_time *= rng.lognormal(0.0, 0.3);
      t.gpu_time *= rng.lognormal(0.0, 0.3);
    }
    HeteroPrioOptions options;
    options.actual_times = actuals;
    SCOPED_TRACE("instance " + std::to_string(inst_idx));
    expect_identical(heteroprio(inst.tasks(), platform, options),
                     heteroprio_reference(inst.tasks(), platform, options));
  }
}

// DAG mode (set-based ready queue + priority victim order + release events).
TEST(HpRegression, RandomDagsMatchReference) {
  const Platform platform(4, 2);
  for (int inst_idx = 0; inst_idx < 12; ++inst_idx) {
    util::Rng rng(util::seed_from_cell(
        {static_cast<std::uint64_t>(inst_idx)}, /*salt=*/0xda60));
    LayeredDagParams params;
    params.layers = 4 + inst_idx % 4;
    params.width = 5 + inst_idx % 6;
    TaskGraph graph = random_layered_dag(params, rng);
    assign_priorities(graph, RankScheme::kMin);
    for (const bool spoliation : {true, false}) {
      SCOPED_TRACE("dag " + std::to_string(inst_idx) + " spoliation=" +
                   std::to_string(spoliation));
      HeteroPrioOptions options;
      options.enable_spoliation = spoliation;
      const Schedule optimized = heteroprio_dag(graph, platform, options);
      const Schedule reference =
          heteroprio_dag_reference(graph, platform, options);
      expect_identical(optimized, reference);
      EXPECT_TRUE(check_schedule(optimized, graph, platform).ok);
    }
  }
}

struct Digest {
  std::uint64_t schedule = 0;  ///< schedule and counters
  std::uint64_t events = 0;
};

/// One batch run through the general event loop (a recorder is attached);
/// `graph` selects heteroprio_dag. `out`, when set, receives the stats, and
/// `wakeups` the run's wakeup_only_instants.
Digest batch_digest(std::span<const Task> tasks, const TaskGraph* graph,
                    const Platform& platform, HeteroPrioOptions options,
                    HeteroPrioStats* out = nullptr,
                    std::size_t* wakeups = nullptr) {
  obs::EventRecorder recorder;
  options.sink = &recorder;
  HeteroPrioStats stats;
  const Schedule s = graph != nullptr
                         ? heteroprio_dag(*graph, platform, options, &stats)
                         : heteroprio(tasks, platform, options, &stats);
  if (out != nullptr) *out = stats;
  if (wakeups != nullptr) *wakeups = wakeup_only_instants(recorder.events());
  const fault::RecoveryReport& r = stats.recovery;
  const std::int64_t counts[] = {
      stats.spoliations,   stats.spoliation_attempts, stats.spoliation_skips,
      r.worker_crashes,    r.crash_requeues,          r.task_failures,
      r.task_retries,      r.tasks_abandoned,         r.tasks_unfinished,
      r.straggler_windows, r.degraded ? 1 : 0,
  };
  std::uint64_t h = fnv1a(schedule_checksum(s), counts, sizeof counts);
  h = fnv1a(h, &stats.first_idle_time, sizeof stats.first_idle_time);
  return {h, events_checksum(recorder.events())};
}

void expect_digest(const Digest& got, const Digest& want,
                   const std::string& label) {
  EXPECT_EQ(got.schedule, want.schedule)
      << label << ": schedule 0x" << std::hex << got.schedule;
#ifndef HP_OBS_OFF
  EXPECT_EQ(got.events, want.events)
      << label << ": events 0x" << std::hex << got.events;
#endif  // HP_OBS_OFF
}

std::vector<Task> uniform_tasks(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const Instance inst = uniform_instance({.num_tasks = n}, rng);
  return {inst.tasks().begin(), inst.tasks().end()};
}

TaskGraph ranked_cholesky(int tiles) {
  TaskGraph g = cholesky_dag(tiles);
  assign_priorities(g, RankScheme::kAvg);
  return g;
}

TEST(HpRegression, CrashTiesWithACompletionOnItsWorker) {
  // Crashes are queued before any completion, so a crash at the instant its
  // worker completes a task wins the tie and aborts the attempt. The crash
  // instants come from a fault-free run, which the faulty one follows up to
  // the first crash: the earliest completion on a CPU, on its worker, and
  // the second completion on GPU 3. The earlier of the two must abort.
  const std::vector<Task> tasks = uniform_tasks(60, 0xc7a5);
  const TaskGraph chol = ranked_cholesky(6);
  const Platform platform(3, 2);
  const Digest golden[2] = {
      {0x4fa0bee6a4dedd9full, 0xcb3be2eb9c42cb6cull},
      {0x686b5f6475c8db71ull, 0x92070e83e4599932ull},
  };
  for (int g = 0; g < 2; ++g) {
    const TaskGraph* graph = g == 0 ? nullptr : &chol;
    const Schedule probe = graph != nullptr
                               ? heteroprio_dag(*graph, platform)
                               : heteroprio(tasks, platform);
    Placement first_cpu{-1, 0.0, std::numeric_limits<double>::infinity()};
    std::vector<double> gpu_ends;
    for (const Placement& p : probe.placements()) {
      if (p.worker < platform.cpus() && p.end < first_cpu.end) first_cpu = p;
      if (p.worker == 3) gpu_ends.push_back(p.end);
    }
    std::sort(gpu_ends.begin(), gpu_ends.end());
    ASSERT_GE(first_cpu.worker, 0);
    ASSERT_GE(gpu_ends.size(), 2u);
    fault::FaultPlan faults;
    faults.add_crash(first_cpu.worker, first_cpu.end);
    faults.add_crash(3, gpu_ends[1]);
    HeteroPrioOptions options;
    options.faults = &faults;
    const Schedule crashed = graph != nullptr
                                 ? heteroprio_dag(*graph, platform, options)
                                 : heteroprio(tasks, platform, options);
    ASSERT_FALSE(crashed.aborted().empty());
    const bool cpu_first = first_cpu.end < gpu_ends[1];
    EXPECT_EQ(crashed.aborted().front().worker,
              cpu_first ? first_cpu.worker : 3);
    EXPECT_EQ(crashed.aborted().front().abort_time,
              cpu_first ? first_cpu.end : gpu_ends[1]);
    expect_digest(batch_digest(tasks, graph, platform, options), golden[g],
                  g == 0 ? "indep" : "dag");
  }
}

TEST(HpRegression, AbandonedAttemptsWakeTheLoopAlone) {
  // The old finish time of an attempt that a spoliation or a crash aborted
  // still opens an instant, whose dispatch pass counts spoliation attempts
  // and skips. Each run aborts attempts one way only. (An independent run
  // spoliates only once its queue is empty, so the victims' old finish
  // times fall after its last completion.)
  const std::vector<Task> tasks = uniform_tasks(50, 0xab0e);
  const TaskGraph chol = ranked_cholesky(6);
  const Platform platform(3, 2);
  const double lb = opt_lower_bound(tasks, platform);
  fault::FaultPlan crashes;
  crashes.add_crash(0, 0.3 * lb);
  crashes.add_crash(3, 0.5 * lb);
  HeteroPrioOptions spoliated;
  HeteroPrioOptions crashed;
  crashed.enable_spoliation = false;
  crashed.faults = &crashes;

  const Digest golden[3] = {
      {0xb71f59296d26086aull, 0x12673a0481c13290ull},
      {0x229dbc629ef77f69ull, 0x64cc24e890430922ull},
      {0x9cac78f520fad5dbull, 0xa5d78b921b776fe0ull},
  };
  const char* const names[3] = {"spoliated dag", "crashed", "crashed dag"};
  for (int r = 0; r < 3; ++r) {
    HeteroPrioStats stats;
    std::size_t wakeups = 0;
    expect_digest(batch_digest(tasks, r == 1 ? nullptr : &chol, platform,
                               r == 0 ? spoliated : crashed, &stats,
                               &wakeups),
                  golden[r], names[r]);
    EXPECT_GT(r == 0 ? stats.spoliations : stats.recovery.crash_requeues, 0)
        << names[r];
#ifndef HP_OBS_OFF
    EXPECT_GT(wakeups, 0u) << names[r];
#endif  // HP_OBS_OFF
  }
}

TEST(HpRegression, ZeroDurationTasksFinishAtTheirStart) {
  // A zero-length attempt completes at the instant it starts, which opens
  // a second instant at the same time after the dispatch pass.
  std::vector<Task> tasks = uniform_tasks(40, 0x2e80);
  for (std::size_t i = 0; i < tasks.size(); i += 4) {
    tasks[i].cpu_time = 0.0;
    tasks[i + 1].gpu_time = 0.0;
  }
  TaskGraph chain("chain");
  for (const Task& t : tasks) chain.add_task(t);
  for (TaskId i = 0; i + 3 < 40; i += 2) chain.add_edge(i, i + 3);
  chain.finalize();
  const Platform platform(3, 2);
  fault::FaultPlan faults;
  faults.set_task_faults(0.3, 3, 0.0, 17);
  HeteroPrioOptions faulty;
  faulty.faults = &faults;

  const Digest golden[3] = {
      {0x42ccdb8e12c0a4dull, 0xd76fe5c53ccd0b2cull},
      {0x5ec168955ca30ebdull, 0xbcae6ebae81a6b2dull},
      {0xc9fc8e993a4536eull, 0x93bf6a655420a3f0ull},
  };
  expect_digest(batch_digest(tasks, nullptr, platform, {}), golden[0],
                "indep");
  expect_digest(batch_digest(tasks, &chain, platform, {}), golden[1], "dag");
  expect_digest(batch_digest(tasks, nullptr, platform, faulty), golden[2],
                "faulty");
}

TEST(HpRegression, FaultsOnMoreThanSixtyFourWorkers) {
  // 70 CPUs + 6 GPUs: the idle set and the finish array span two 64-bit
  // words. Crashes hit a CPU in the first word and a GPU in the second.
  const std::vector<Task> tasks = uniform_tasks(1500, 0x4676);
  const TaskGraph chol = ranked_cholesky(8);
  const Platform platform(70, 6);
  const Digest golden[2] = {
      {0x34c747f12d21572eull, 0x8ef815f6fea11321ull},
      {0x517b94e048c8bf61ull, 0x58e4089c2f84e56dull},
  };
  for (int g = 0; g < 2; ++g) {
    const TaskGraph* graph = g == 0 ? nullptr : &chol;
    const double lb = opt_lower_bound(g == 0 ? std::span<const Task>(tasks)
                                             : chol.tasks(),
                                      platform);
    fault::FaultPlan faults;
    faults.add_crash(5, 0.3 * lb);
    faults.add_crash(72, 0.5 * lb);
    faults.add_straggler(1, 0.2 * lb, 0.6 * lb, 4.0);
    faults.set_task_faults(0.02, 3, 0.01 * lb, 29);
    HeteroPrioOptions options;
    options.faults = &faults;
    HeteroPrioStats stats;
    expect_digest(batch_digest(tasks, graph, platform, options, &stats),
                  golden[g], g == 0 ? "indep" : "dag");
    EXPECT_EQ(stats.recovery.worker_crashes, 2);
  }
}

}  // namespace
}  // namespace hp
