// Bitwise regression gate for the online runtime's event loop. Each case
// runs online_run / online_run_dag and folds the schedule checksum, the
// outcome counters and (when probes are compiled in) an FNV checksum of the
// recorded event stream into golden values. The cases stress the order in
// which one instant drains: Poisson arrivals at several multiples of the
// area-bound rate under faults, deadlines, reschedule ticks and admission
// watermarks, and hand-built plans that are not monotone in task id, whose
// arrivals tie with a completion, a tick and a zero-backoff retry, plus a
// deadline so small that `now + rel == now`. All inputs are pure functions
// of the seeds below, so the checksums are machine-independent.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "bounds/area_bound.hpp"
#include "dag/ranking.hpp"
#include "fault/fault_plan.hpp"
#include "linalg/cholesky.hpp"
#include "model/generators.hpp"
#include "obs/recorder.hpp"
#include "online/runtime.hpp"
#include "schedule_checksum.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

struct Digest {
  std::uint64_t schedule = 0;
  std::uint64_t events = 0;
};

std::uint64_t stats_checksum(std::uint64_t h, const online::OnlineStats& s) {
  const std::uint64_t counts[] = {
      s.tasks_arrived,
      s.tasks_admitted,
      s.tasks_rejected,
      s.tasks_deferred,
      s.deadline_misses,
      s.replans,
      s.reschedule_ticks,
      s.mode_changes,
      static_cast<std::uint64_t>(s.final_mode),
      static_cast<std::uint64_t>(s.spoliations),
      static_cast<std::uint64_t>(s.spoliation_attempts),
      static_cast<std::uint64_t>(s.spoliation_skips),
      static_cast<std::uint64_t>(s.recovery.worker_crashes),
      static_cast<std::uint64_t>(s.recovery.crash_requeues),
      static_cast<std::uint64_t>(s.recovery.task_failures),
      static_cast<std::uint64_t>(s.recovery.task_retries),
      static_cast<std::uint64_t>(s.recovery.tasks_abandoned),
      static_cast<std::uint64_t>(s.recovery.tasks_unfinished),
      static_cast<std::uint64_t>(s.recovery.straggler_respawns),
      static_cast<std::uint64_t>(s.recovery.straggler_windows),
  };
  h = fnv1a(h, counts, sizeof counts);
  return fnv1a(h, &s.first_idle_time, sizeof s.first_idle_time);
}

/// One online run; `graph` selects online_run_dag, otherwise `tasks` runs
/// through online_run.
/// `out`, when set, receives the run's stats, and `wakeups` its
/// wakeup_only_instants.
Digest run_digest(std::span<const Task> tasks, const TaskGraph* graph,
                  const Platform& platform, online::OnlineOptions options,
                  online::OnlineStats* out = nullptr,
                  std::size_t* wakeups = nullptr) {
  obs::EventRecorder recorder;
  options.sink = &recorder;
  online::OnlineStats stats;
  const Schedule s =
      graph != nullptr
          ? online::online_run_dag(*graph, platform, options, &stats)
          : online::online_run(tasks, platform, options, &stats);
  EXPECT_EQ(stats.tasks_arrived, tasks.size());
  if (out != nullptr) *out = stats;
  if (wakeups != nullptr) *wakeups = wakeup_only_instants(recorder.events());
  return {stats_checksum(schedule_checksum(s), stats),
          events_checksum(recorder.events())};
}

/// The run `run_digest` records, without a sink: the schedule alone.
Schedule run_plain(std::span<const Task> tasks, const TaskGraph* graph,
                   const Platform& platform,
                   const online::OnlineOptions& options) {
  return graph != nullptr ? online::online_run_dag(*graph, platform, options)
                          : online::online_run(tasks, platform, options);
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

constexpr double kRates[] = {0.0, 0.5, 1.0, 2.0, 16.0};

/// The benchmark's online shape: deadlines of
/// 4x a task's best time, 50 ticks per lower bound with straggler respawn,
/// CPU 0 crashing at 0.3 LB, CPU 1 four times slower over [0.2, 0.6] LB and
/// 1% task failures with up to 4 attempts. `retry_backoff` is a fraction
/// of the lower bound (0 re-enqueues a failed task at once).
struct Shape {
  Platform platform = Platform(20, 4);
  std::size_t watermark_high = 0;
  online::ShedPolicy policy = online::ShedPolicy::kDefer;
  double retry_backoff = 0.0;
};

std::vector<Digest> poisson_digests(const TaskGraph& g, const Shape& shape,
                                    std::uint64_t seed) {
  const Platform& platform = shape.platform;
  const double lb = opt_lower_bound(g.tasks(), platform);
  fault::FaultPlan faults;
  faults.add_crash(0, 0.3 * lb);
  faults.add_straggler(1, 0.2 * lb, 0.6 * lb, 4.0);
  faults.set_task_faults(0.01, 4, shape.retry_backoff * lb, seed);
  std::vector<Digest> out;
  for (const double factor : kRates) {
    const online::ArrivalPlan arrivals = online::ArrivalPlan::generate(
        {.rate = factor * static_cast<double>(g.size()) / lb,
         .deadline_factor = 4.0,
         .seed = seed},
        g.tasks());
    online::OnlineOptions o;
    o.arrivals = &arrivals;
    o.faults = &faults;
    o.reschedule_period = lb / 50.0;
    o.straggler_factor = 2.0;
    o.respawn_budget = 64;
    o.watermark_high = shape.watermark_high;
    o.shed_policy = shape.policy;
    out.push_back(run_digest(g.tasks(), g.num_edges() > 0 ? &g : nullptr,
                             platform, o));
  }
  return out;
}

TaskGraph independent_graph(std::size_t n) {
  util::Rng rng(0x0a11e5u + n);
  const Instance inst = uniform_instance({.num_tasks = n}, rng);
  TaskGraph g("indep-" + std::to_string(n));
  for (const Task& t : inst.tasks()) g.add_task(t);
  g.finalize();
  return g;
}

TaskGraph ranked_cholesky(int tiles) {
  TaskGraph g = cholesky_dag(tiles);
  assign_priorities(g, RankScheme::kAvg);
  return g;
}

void expect_poisson(const TaskGraph& g, const Shape& shape,
                    std::uint64_t seed, const Digest (&golden)[5]) {
  const std::vector<Digest> got = poisson_digests(g, shape, seed);
  for (std::size_t i = 0; i < got.size(); ++i) {
    expect_digest(got[i], golden[i],
                  g.name() + " rate " + std::to_string(kRates[i]) + "x");
  }
}

TEST(OnlineRegression, PoissonIndependentDeferMatchesRecordedChecksums) {
  const Digest golden[5] = {
      {0x093ea3d726b27a79ull, 0x14f6398f7144bd30ull},
      {0xf41310285e039b7cull, 0xeb696560c470ce1full},
      {0x465b05a8fbd76c4full, 0x091f73679c13e1bcull},
      {0x460d1ddcf1eda9a0ull, 0x1a32744b7647d579ull},
      {0x62be19366ecb7063ull, 0xbe15f491b07a32e4ull},
  };
  expect_poisson(independent_graph(2000), {.watermark_high = 256}, 1, golden);
}

TEST(OnlineRegression, PoissonIndependentRejectMatchesRecordedChecksums) {
  const Digest golden[5] = {
      {0x35a73025a0a5adeaull, 0xecadbabd8f160f81ull},
      {0x8ad94bf2d7f0467cull, 0xdf40601b21bc5e32ull},
      {0x56aa66c717643660ull, 0xbae850984e48b96bull},
      {0x903dd60a9547b32bull, 0x3f591c04379213cbull},
      {0x47996d598d4850deull, 0x14be8aa367dae085ull},
  };
  expect_poisson(independent_graph(2000),
                 {.watermark_high = 64,
                  .policy = online::ShedPolicy::kReject,
                  .retry_backoff = 0.01},
                 7919, golden);
}

TEST(OnlineRegression, PoissonCholeskyDeferMatchesRecordedChecksums) {
  const Digest golden[5] = {
      {0x1f38656b9fc84663ull, 0x76c5809e540907acull},
      {0x535a810bcb1b8668ull, 0xc7af6430607b0688ull},
      {0xe259e1880df1f079ull, 0xdb02c2017fe88bfaull},
      {0xfb3a3b9119461343ull, 0x98c69349cf49f1b5ull},
      {0x48bb04a346a11ee7ull, 0xd161741366deec86ull},
  };
  expect_poisson(ranked_cholesky(8),
                 {.platform = Platform(4, 2), .watermark_high = 4}, 1, golden);
}

TEST(OnlineRegression, PoissonCholeskyBackoffMatchesRecordedChecksums) {
  const Digest golden[5] = {
      {0x81f6f21a7a8c448full, 0xcdb500b8c746acc4ull},
      {0xdd3b921ec63f6d68ull, 0xd2acd6606a3908f6ull},
      {0xfffaa53e4a149eb0ull, 0xfbb86e7a763a50a9ull},
      {0xdcc34a4d7be12dd6ull, 0x841c72d639650247ull},
      {0x6d5db039f89ca191ull, 0xf579037154daa121ull},
  };
  expect_poisson(ranked_cholesky(8),
                 {.platform = Platform(4, 2),
                  .watermark_high = 2,
                  .retry_backoff = 0.01},
                 7919, golden);
}

TEST(OnlineRegression, PoissonCholeskyRejectMatchesRecordedChecksums) {
  // Rejected DAG tasks leave their descendants unfinished; the run must
  // still end. At rates 0x and 16x the backlog never reaches the
  // watermark, so those two digests equal the defer case's.
  const Digest golden[5] = {
      {0x1f38656b9fc84663ull, 0x76c5809e540907acull},
      {0x5492a3a5b68428e8ull, 0xe0932493e68e42cbull},
      {0x36919cdefcbb11d4ull, 0x52b92a7f09d79ce7ull},
      {0x80f088088101d158ull, 0x60c22b7d671dfc07ull},
      {0x48bb04a346a11ee7ull, 0xd161741366deec86ull},
  };
  expect_poisson(ranked_cholesky(8),
                 {.platform = Platform(4, 2),
                  .watermark_high = 4,
                  .policy = online::ShedPolicy::kReject},
                 1, golden);
}

/// Sixteen tasks with dyadic times, so completions land exactly on the
/// quarter-unit grid the hand-built arrivals and ticks use.
std::vector<Task> dyadic_tasks() {
  std::vector<Task> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back(Task{0.25 * static_cast<double>(1 + (i * 5) % 7),
                         0.25 * static_cast<double>(1 + (i * 3) % 4),
                         static_cast<double>((i * 11) % 5)});
  }
  return tasks;
}

/// Arrival plan not monotone in id: task i arrives at a quarter-unit
/// instant drawn from a fixed permutation, so several ids share an instant
/// in decreasing order.
online::ArrivalPlan shuffled_plan(std::size_t n) {
  online::ArrivalPlan plan;
  for (std::size_t i = 0; i < n; ++i) {
    plan.set(static_cast<TaskId>(i),
             0.25 * static_cast<double>((n - i) % 6 + (i % 3 == 0 ? 2 : 0)));
  }
  return plan;
}

TEST(OnlineRegression, ArrivalsTieWithCompletionsAndTicks) {
  // Completions land on the quarter grid and ticks fire every 0.5, so most
  // arrival instants coincide with a completion, a tick or both. The same
  // plan runs with ticks, respawn and admission, on both entry points.
  const std::vector<Task> tasks = dyadic_tasks();
  const Platform platform(2, 1);
  const online::ArrivalPlan plan = shuffled_plan(tasks.size());
  TaskGraph chain("chain");
  for (const Task& t : tasks) chain.add_task(t);
  for (TaskId i = 0; i + 2 < 16; i += 3) chain.add_edge(i, i + 2);
  chain.finalize();

  online::OnlineOptions o;
  o.arrivals = &plan;
  o.reschedule_period = 0.5;
  o.straggler_factor = 1.5;
  o.respawn_budget = 4;
  o.watermark_high = 3;
  const Digest golden[3] = {
      {0xb7219dc68d344bbcull, 0x26d5ae8e6a86fe78ull},
      {0xf197aaadc88b6c6cull, 0x9e6de6e9be32c2f5ull},
      {0x35757b587b165ea2ull, 0x19a97fd238e407d3ull},
  };
  expect_digest(run_digest(tasks, nullptr, platform, o), golden[0], "indep");
  expect_digest(run_digest(tasks, &chain, platform, o), golden[1], "dag");
  o.shed_policy = online::ShedPolicy::kReject;
  o.watermark_high = 2;
  expect_digest(run_digest(tasks, nullptr, platform, o), golden[2], "reject");
}

TEST(OnlineRegression, ArrivalsTieWithAZeroBackoffRetry) {
  // A probe run in which tasks 1 and 3 arrive late finds the instant of the
  // first failed attempt (spoliation and respawn are off, so every aborted
  // segment is a failure). The tied run moves both arrivals onto that
  // instant: its history before the instant is the probe's, and at the
  // instant the two arrivals drain with the failed attempt's zero-backoff
  // re-enqueue.
  const std::vector<Task> tasks = dyadic_tasks();
  const Platform platform(2, 1);
  fault::FaultPlan faults;
  faults.set_task_faults(0.4, 3, 0.0, 23);
  online::ArrivalPlan plan = shuffled_plan(tasks.size());
  plan.set(1, 1000.0);
  plan.set(3, 1000.0);

  online::OnlineOptions o;
  o.enable_spoliation = false;
  o.faults = &faults;
  o.arrivals = &plan;
  const Schedule probe = online::online_run(tasks, platform, o);
  ASSERT_FALSE(probe.aborted().empty());
  double fail_at = probe.aborted().front().abort_time;
  for (const AbortedSegment& a : probe.aborted()) {
    fail_at = std::min(fail_at, a.abort_time);
  }
  plan.set(1, fail_at);
  plan.set(3, fail_at);

  const Digest golden[2] = {
      {0x8595ef8741be793aull, 0xfed76ad54d331183ull},
      {0x89d1661f3563143cull, 0x46912af83028c9bfull},
  };
  expect_digest(run_digest(tasks, nullptr, platform, o), golden[0], "tied");
  o.enable_spoliation = true;
  o.reschedule_period = 0.5;
  expect_digest(run_digest(tasks, nullptr, platform, o), golden[1],
                "tied+spoliation");
}

TEST(OnlineRegression, DeadlineThatRoundsToItsArrivalInstant) {
  // rel = 1e-300 vanishes against any arrival instant >= 0.25: the deadline
  // event lands on the arrival instant itself and drains in the same batch.
  // At t=0 it does not vanish, so t=0 arrivals get a deadline just after.
  const std::vector<Task> tasks = dyadic_tasks();
  const Platform platform(2, 1);
  online::ArrivalPlan plan = shuffled_plan(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); i += 2) {
    const auto id = static_cast<TaskId>(i);
    plan.set(id, plan.arrival(id), 1e-300);
  }
  ASSERT_EQ(plan.arrival(2) + 1e-300, plan.arrival(2));

  online::OnlineOptions o;
  o.arrivals = &plan;
  o.reschedule_period = 0.5;
  const Digest golden[1] = {
      {0x3367a7660f037603ull, 0xedf5a07c54f99a9full},
  };
  expect_digest(run_digest(tasks, nullptr, platform, o), golden[0],
                "tiny deadline");
}

TEST(OnlineRegression, PlansShorterAndLongerThanTheTaskSet) {
  // A plan's size need not match the task count: tasks beyond it arrive at
  // t=0 with no deadline, entries beyond the last task are ignored. The
  // short plans leave tasks 10..15 at t=0 behind later instants, sorted or
  // not; the long plans carry six extra entries with deadlines, after the
  // last real arrival (sorted) or at t=0 (shuffled).
  const std::vector<Task> tasks = dyadic_tasks();
  const std::size_t n = tasks.size();
  const Platform platform(2, 1);
  TaskGraph chain("chain");
  for (const Task& t : tasks) chain.add_task(t);
  for (TaskId i = 0; i + 2 < 16; i += 3) chain.add_edge(i, i + 2);
  chain.finalize();

  online::ArrivalPlan short_sorted;
  for (std::size_t i = 0; i < 10; ++i) {
    short_sorted.set(static_cast<TaskId>(i),
                     0.25 * static_cast<double>(1 + i / 2));
  }
  online::ArrivalPlan long_sorted;
  for (std::size_t i = 0; i < n + 6; ++i) {
    long_sorted.set(static_cast<TaskId>(i), 0.25 * static_cast<double>(i / 3),
                    i >= n ? 0.5 : 0.0);
  }
  online::ArrivalPlan long_shuffled = shuffled_plan(n + 6);
  for (std::size_t i = n; i < n + 6; ++i) {
    long_shuffled.set(static_cast<TaskId>(i), 0.0, 0.25);
  }
  const online::ArrivalPlan plans[4] = {short_sorted, shuffled_plan(10),
                                        long_sorted, long_shuffled};
  const char* const names[4] = {"short sorted", "short shuffled",
                                "long sorted", "long shuffled"};

  online::OnlineOptions o;
  o.reschedule_period = 0.5;
  o.straggler_factor = 1.5;
  o.respawn_budget = 4;
  const Digest golden[4][2] = {
      {{0x24bdf5d9bd623779ull, 0x421b05c374b2cd4aull},
       {0x78c0eaf8e1a547caull, 0xdd2ac668946a8df1ull}},
      {{0x5680071f9d02e216ull, 0x9d675a8fab8d7ce3ull},
       {0x5376e04478c8a80full, 0x6c91fc5e08a8d904ull}},
      {{0xf2a9b29838b62a30ull, 0x88fadd1a79db2dccull},
       {0x48a537fa07d1f815ull, 0x8cfabb5e993d97c6ull}},
      {{0x37a50186565fcd8aull, 0x3ef0f469f36929a4ull},
       {0x904f41fe25ebca0aull, 0xc9610c87cba60ca7ull}},
  };
  for (int p = 0; p < 4; ++p) {
    o.arrivals = &plans[p];
    expect_digest(run_digest(tasks, nullptr, platform, o), golden[p][0],
                  std::string(names[p]) + " indep");
    expect_digest(run_digest(tasks, &chain, platform, o), golden[p][1],
                  std::string(names[p]) + " dag");
  }
}

/// The sixteen dyadic tasks with a few chain edges.
TaskGraph dyadic_chain(const std::vector<Task>& tasks) {
  TaskGraph chain("chain");
  for (const Task& t : tasks) chain.add_task(t);
  for (TaskId i = 0; i + 2 < 16; i += 3) chain.add_edge(i, i + 2);
  chain.finalize();
  return chain;
}

TEST(OnlineRegression, DeadlinesTieWithCompletions) {
  // Deadlines only observe, so a run without them fixes every completion
  // instant. Even tasks then get a deadline on their own completion, whose
  // sequence number is taken at arrival, before the completion's. Odd tasks
  // get one on the completion of a task that started before they arrived,
  // so the completion's number comes first.
  const std::vector<Task> tasks = dyadic_tasks();
  const TaskGraph chain = dyadic_chain(tasks);
  const Platform platform(2, 1);
  const Digest golden[2] = {
      {0x7cbd5714daf2ca64ull, 0xa01fc31d3add6f37ull},
      {0x910e00dde350a520ull, 0x913b3fb1f977ac37ull},
  };
  for (int g = 0; g < 2; ++g) {
    const TaskGraph* graph = g == 0 ? nullptr : &chain;
    online::ArrivalPlan plan = shuffled_plan(tasks.size());
    online::OnlineOptions o;
    o.arrivals = &plan;
    o.reschedule_period = 0.5;
    const Schedule probe = run_plain(tasks, graph, platform, o);
    int own = 0;
    int other = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      const auto id = static_cast<TaskId>(i);
      const double a = plan.arrival(id);
      double due = 0.0;
      if (i % 2 == 0) {
        due = probe.placement(id).end;
        ++own;
      } else {
        for (const Placement& p : probe.placements()) {
          if (p.start < a && p.end > a) {
            due = p.end;
            ++other;
            break;
          }
        }
      }
      if (due > a) plan.set(id, a, due - a);
    }
    ASSERT_GT(own, 0);
    ASSERT_GT(other, 0);
    online::OnlineStats stats;
    expect_digest(run_digest(tasks, graph, platform, o, &stats), golden[g],
                  g == 0 ? "indep" : "dag");
    EXPECT_GT(stats.deadline_misses, 0u);
  }
}

TEST(OnlineRegression, CrashTiesWithACompletionOnItsWorker) {
  // Crashes are queued before any completion, so a crash at the instant its
  // worker completes a task wins the tie: the attempt is aborted and
  // re-enqueued. The crash instants come from a fault-free run, which the
  // faulty one follows up to the first crash.
  const std::vector<Task> tasks = dyadic_tasks();
  const TaskGraph chain = dyadic_chain(tasks);
  const Platform platform(2, 1);
  const online::ArrivalPlan plan = shuffled_plan(tasks.size());
  const Digest golden[2] = {
      {0x1c158b4520882346ull, 0x80fd3b07d2b04df0ull},
      {0x25e7b81fbea2d205ull, 0x6ee062d6f7b9da54ull},
  };
  for (int g = 0; g < 2; ++g) {
    const TaskGraph* graph = g == 0 ? nullptr : &chain;
    online::OnlineOptions o;
    o.arrivals = &plan;
    o.reschedule_period = 0.5;
    const Schedule probe = run_plain(tasks, graph, platform, o);
    double first_end = kInfinity;
    for (const Placement& p : probe.placements()) {
      if (p.worker == 0) first_end = std::min(first_end, p.end);
    }
    ASSERT_LT(first_end, kInfinity);
    fault::FaultPlan faults;
    faults.add_crash(0, first_end);
    o.faults = &faults;
    const Schedule crashed = run_plain(tasks, graph, platform, o);
    ASSERT_FALSE(crashed.aborted().empty());
    EXPECT_EQ(crashed.aborted().front().worker, 0);
    EXPECT_EQ(crashed.aborted().front().abort_time, first_end);
    expect_digest(run_digest(tasks, graph, platform, o), golden[g],
                  g == 0 ? "indep" : "dag");
  }
}

TEST(OnlineRegression, AbandonedAttemptsWakeTheLoopAlone) {
  // The old finish time of an attempt that a spoliation, a crash or a
  // straggler respawn aborted still opens an instant: its dispatch pass
  // counts spoliation attempts and skips and samples the queue. Each run
  // below aborts attempts one way only, and at least one such instant has
  // nothing else happening.
  util::Rng rng(0xab0e7u);
  const Instance inst = uniform_instance({.num_tasks = 40}, rng);
  const std::vector<Task> tasks(inst.tasks().begin(), inst.tasks().end());
  const Platform platform(3, 2);
  const double lb = opt_lower_bound(tasks, platform);
  const online::ArrivalPlan plan = online::ArrivalPlan::generate(
      {.rate = static_cast<double>(tasks.size()) / lb, .seed = 5}, tasks);
  std::vector<Task> slow = tasks;
  for (std::size_t i = 0; i < slow.size(); i += 5) {
    slow[i].cpu_time *= 6.0;
    slow[i].gpu_time *= 6.0;
  }
  fault::FaultPlan crashes;
  crashes.add_crash(0, 0.3 * lb);
  crashes.add_crash(3, 0.5 * lb);

  online::OnlineOptions spoliated;
  spoliated.arrivals = &plan;
  online::OnlineOptions crashed;
  crashed.arrivals = &plan;
  crashed.enable_spoliation = false;
  crashed.faults = &crashes;
  online::OnlineOptions respawned;
  respawned.arrivals = &plan;
  respawned.enable_spoliation = false;
  respawned.actual_times = slow;
  respawned.reschedule_period = lb / 40.0;
  respawned.straggler_factor = 1.5;
  respawned.respawn_budget = 16;

  const online::OnlineOptions* runs[3] = {&spoliated, &crashed, &respawned};
  const char* const names[3] = {"spoliated", "crashed", "respawned"};
  const Digest golden[3] = {
      {0x7a0c4a7fec840178ull, 0x3ea223d9ed6d41d2ull},
      {0xcb072abec9a3fe24ull, 0x8e2b80d2c8878ac7ull},
      {0x8c1ec745f1f672d0ull, 0xed5566754efd443eull},
  };
  for (int r = 0; r < 3; ++r) {
    online::OnlineStats stats;
    std::size_t wakeups = 0;
    expect_digest(run_digest(tasks, nullptr, platform, *runs[r], &stats,
                             &wakeups),
                  golden[r], names[r]);
    const int aborts[3] = {stats.spoliations, stats.recovery.crash_requeues,
                           stats.recovery.straggler_respawns};
    EXPECT_GT(aborts[r], 0) << names[r];
#ifndef HP_OBS_OFF
    EXPECT_GT(wakeups, 0u) << names[r];
#endif  // HP_OBS_OFF
  }
}

/// dyadic_tasks() with a zero CPU time on every fourth task and a zero GPU
/// time on the next one.
std::vector<Task> tasks_with_zero_times() {
  std::vector<Task> tasks = dyadic_tasks();
  for (std::size_t i = 0; i < tasks.size(); i += 4) {
    tasks[i].cpu_time = 0.0;
    tasks[i + 1].gpu_time = 0.0;
  }
  return tasks;
}

TEST(OnlineRegression, ZeroDurationTasksFinishAtTheirStart) {
  // A zero-length attempt completes at the instant it starts, which opens
  // a second instant at the same time after the dispatch pass.
  const std::vector<Task> tasks = tasks_with_zero_times();
  const TaskGraph chain = dyadic_chain(tasks);
  const Platform platform(2, 1);
  const online::ArrivalPlan plan = shuffled_plan(tasks.size());
  fault::FaultPlan faults;
  faults.set_task_faults(0.3, 3, 0.0, 11);
  online::OnlineOptions o;
  o.arrivals = &plan;
  o.reschedule_period = 0.5;
  o.faults = &faults;
  const Digest golden[2] = {
      {0x84051181b295477cull, 0x8b4625f2e4c36b86ull},
      {0x3fa72f397ccbe2bull, 0x73da05ca1485f629ull},
  };
  expect_digest(run_digest(tasks, nullptr, platform, o), golden[0], "indep");
  expect_digest(run_digest(tasks, &chain, platform, o), golden[1], "dag");
}

TEST(OnlineRegression, PoissonOnMoreThanSixtyFourWorkers) {
  // 70 CPUs + 6 GPUs: the idle set and the finish array span two 64-bit
  // words.
  const Shape shape{.platform = Platform(70, 6), .watermark_high = 256};
  const Digest indep[5] = {
      {0x6d7a0a21b6c656c1ull, 0x2c62ee1fb2ca72afull},
      {0x66170e926a2beadbull, 0x47b4362101e2f912ull},
      {0xb6dce24262fffad8ull, 0xcbf6ad6fbe302b3ull},
      {0xe0796313c6f9e836ull, 0xa525f8f65e614136ull},
      {0xb9f95556463a9313ull, 0x99453dff3f6fead2ull},
  };
  expect_poisson(independent_graph(2000), shape, 3, indep);
  const Digest dag[5] = {
      {0xb1633d6f5d334bf5ull, 0xfeb50a41d8df0b65ull},
      {0xee975122f47b62ebull, 0xbbb68ff2f75834aaull},
      {0x30e18348fcc5e635ull, 0x9c25939d15a7829aull},
      {0x29fc20557b8286beull, 0x4b4f6306425e2397ull},
      {0xbf599d5bc71f26bdull, 0xa83b04dfccbb5882ull},
  };
  expect_poisson(ranked_cholesky(8), shape, 3, dag);
}

}  // namespace
}  // namespace hp
