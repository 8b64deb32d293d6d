// Regression harness for the HEFT engine: the flat gap arrays
// (baselines/heft.cpp) must produce bitwise-identical schedules to the
// segment-scanning reference (baselines/heft_ref.cpp) — same workers, same
// start/finish doubles, same makespans — on independent instances, random
// layered and sparse DAGs, and tiled Cholesky/QR/LU, across rank schemes
// and with insertion on and off. The reference mishandles zero durations
// (heft_ref.hpp), so inputs with zero times are checked for validity only.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "baselines/heft.hpp"
#include "baselines/heft_ref.hpp"
#include "dag/random_graphs.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "model/generators.hpp"
#include "sched/validate.hpp"
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
  EXPECT_TRUE(same_bits(optimized.makespan(), reference.makespan()));
}

/// The option grid every workload is checked under: both rank schemes,
/// insertion on and off.
void expect_matches_reference_on_dag(const TaskGraph& graph,
                                     const Platform& platform) {
  for (const RankScheme scheme : {RankScheme::kAvg, RankScheme::kMin}) {
    for (const bool insertion : {true, false}) {
      SCOPED_TRACE("rank=" + std::to_string(static_cast<int>(scheme)) +
                   " insertion=" + std::to_string(insertion));
      HeftOptions options;
      options.rank = scheme;
      options.insertion = insertion;
      const Schedule optimized = heft(graph, platform, options);
      expect_identical(optimized, heft_ref(graph, platform, options));
      EXPECT_TRUE(check_schedule(optimized, graph, platform).ok);
    }
  }
}

// Independent tasks never wait on predecessors (ready == 0), so every
// placement appends at a worker's horizon — this pins that down.
TEST(HeftRegression, IndependentUniformMatchesReference) {
  for (int inst_idx = 0; inst_idx < 20; ++inst_idx) {
    const Platform platform(2 + inst_idx % 7, 1 + inst_idx % 3);
    UniformGenParams params;
    params.num_tasks = 10 + static_cast<std::size_t>(inst_idx) * 37;
    params.accel_lo = (inst_idx % 2 == 0) ? 0.2 : 0.05;
    params.accel_hi = 5.0 + 5.0 * (inst_idx % 5);
    util::Rng rng(util::seed_from_cell(
        {static_cast<std::uint64_t>(inst_idx)}, /*salt=*/0x4ef7));
    const Instance inst = uniform_instance(params, rng);
    for (const RankScheme scheme : {RankScheme::kAvg, RankScheme::kMin}) {
      for (const bool insertion : {true, false}) {
        SCOPED_TRACE("instance " + std::to_string(inst_idx) + " rank=" +
                     std::to_string(static_cast<int>(scheme)) +
                     " insertion=" + std::to_string(insertion));
        HeftOptions options;
        options.rank = scheme;
        options.insertion = insertion;
        expect_identical(
            heft_independent(inst.tasks(), platform, options),
            heft_independent_ref(inst.tasks(), platform, options));
      }
    }
  }
}

// Random layered DAGs exercise real gap creation and splitting: successors
// become ready mid-timeline, so placements land inside earlier idle
// stretches.
TEST(HeftRegression, RandomLayeredDagsMatchReference) {
  for (int inst_idx = 0; inst_idx < 15; ++inst_idx) {
    const Platform platform(2 + inst_idx % 5, 1 + inst_idx % 3);
    util::Rng rng(util::seed_from_cell(
        {static_cast<std::uint64_t>(inst_idx)}, /*salt=*/0x6aff));
    LayeredDagParams params;
    params.layers = 4 + inst_idx % 5;
    params.width = 4 + inst_idx % 7;
    const TaskGraph graph = random_layered_dag(params, rng);
    SCOPED_TRACE("dag " + std::to_string(inst_idx));
    expect_matches_reference_on_dag(graph, platform);
  }
}

// The paper's workload shape: wide trailing updates behind a narrow
// critical path, at a tile count big enough for thousands of gap queries.
TEST(HeftRegression, CholeskyMatchesReference) {
  const Platform platform(20, 4);
  for (const int tiles : {6, 12}) {
    SCOPED_TRACE("tiles " + std::to_string(tiles));
    expect_matches_reference_on_dag(cholesky_dag(tiles), platform);
  }
}

// QR and LU at 16 tiles with lognormal noise of sigma 0.05 on 20 CPUs + 4
// GPUs: the graphs the batch-dag benchmark schedules.
TEST(HeftRegression, NoisyQrLuMatchReference) {
  const Platform platform(20, 4);
  for (const bool lu : {false, true}) {
    SCOPED_TRACE(lu ? "lu" : "qr");
    TaskGraph graph = lu ? lu_dag(16) : qr_dag(16);
    util::Rng rng(util::seed_from_cell({lu ? 1u : 0u}, /*salt=*/0x9e11));
    for (std::size_t i = 0; i < graph.size(); ++i) {
      Task& t = graph.task(static_cast<TaskId>(i));
      t.cpu_time *= rng.lognormal(0.0, 0.05);
      t.gpu_time *= rng.lognormal(0.0, 0.05);
    }
    expect_matches_reference_on_dag(graph, platform);
  }
}

// Sparse DAGs of 2000 tasks with a wide forward window: a third or more of
// the queries search the gap array, and many of them land in a gap.
TEST(HeftRegression, LargeSparseDagsMatchReference) {
  for (int inst_idx = 0; inst_idx < 3; ++inst_idx) {
    const Platform platform(4 + 8 * inst_idx, 2 + inst_idx);
    util::Rng rng(util::seed_from_cell(
        {static_cast<std::uint64_t>(inst_idx)}, /*salt=*/0x5a2d));
    SparseDagParams params;
    params.num_tasks = 2000;
    params.window = 50;
    const TaskGraph graph = random_sparse_dag(params, rng);
    SCOPED_TRACE("dag " + std::to_string(inst_idx));
    expect_matches_reference_on_dag(graph, platform);
  }
}

// A fit decided by rounding. B opens the CPU gap [2^53-3, 2^53+4], of
// length 7. C (p = 8) fits it because 2^53-3 + 8 rounds to even, down to
// 2^53+4, and the reference tests exactly that sum against the gap's end.
// An index that skips gaps by their computed length misses this fit.
TEST(HeftRegression, RoundedGapFitMatchesReference) {
  const double h = 1e300;
  const double two53 = std::ldexp(1.0, 53);
  TaskGraph graph;
  const TaskId a = graph.add_task(Task{h, two53 + 4.0});
  graph.add_task(Task{two53 - 3.0, h});
  const TaskId b = graph.add_task(Task{16.0, h});
  const TaskId c = graph.add_task(Task{8.0, h});
  graph.add_edge(a, b);
  graph.finalize();
  const Platform platform(1, 1);
  HeftOptions options;
  options.rank = RankScheme::kMin;
  options.insertion = true;
  const Schedule optimized = heft(graph, platform, options);
  expect_identical(optimized, heft_ref(graph, platform, options));
  EXPECT_EQ(optimized.placement(c).worker, 0);
  EXPECT_EQ(optimized.placement(c).start, 9007199254740989.0);
}

// Zero durations are outside what heft_ref handles, so they cannot be
// checked against it; the engine's schedules must still be valid.
TEST(HeftRegression, ZeroDurationSchedulesAreValid) {
  for (int inst_idx = 0; inst_idx < 30; ++inst_idx) {
    const Platform platform(1 + inst_idx % 5, 1 + inst_idx % 3);
    util::Rng rng(util::seed_from_cell(
        {static_cast<std::uint64_t>(inst_idx)}, /*salt=*/0x2e70));
    LayeredDagParams params;
    params.layers = 3 + inst_idx % 6;
    params.width = 2 + inst_idx % 9;
    TaskGraph graph = random_layered_dag(params, rng);
    for (std::size_t i = 0; i < graph.size(); ++i) {
      Task& t = graph.task(static_cast<TaskId>(i));
      if (rng.bernoulli(0.3)) t.cpu_time = 0.0;
      if (rng.bernoulli(0.3)) t.gpu_time = 0.0;
    }
    for (const RankScheme scheme : {RankScheme::kAvg, RankScheme::kMin}) {
      for (const bool insertion : {true, false}) {
        SCOPED_TRACE("dag " + std::to_string(inst_idx) + " rank=" +
                     std::to_string(static_cast<int>(scheme)) +
                     " insertion=" + std::to_string(insertion));
        HeftOptions options;
        options.rank = scheme;
        options.insertion = insertion;
        const ScheduleCheck check =
            check_schedule(heft(graph, platform, options), graph, platform);
        EXPECT_TRUE(check.ok) << check.message;
      }
    }
  }
}

}  // namespace
}  // namespace hp
