// Bitwise regression gate for the SoA/arena engines beyond the random
// sweeps in test_hp_regression.cpp / test_heft_regression.cpp: every rank
// scheme, fault plans (crashes, stragglers, task retries), the checked-in
// worst-case corpus witnesses (Thm 8 / Thm 11 / Thm 14 instances), and a
// fuzz-oracle differential run — all must agree with the reference engines
// placement-for-placement, bit-for-bit.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/heft.hpp"
#include "baselines/heft_ref.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "core/heteroprio_ref.hpp"
#include "dag/random_graphs.hpp"
#include "dag/ranking.hpp"
#include "fault/fault_plan.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/runner.hpp"
#include "model/generators.hpp"
#include "schedule_checksum.hpp"
#include "util/rng.hpp"

#ifndef HP_CORPUS_DIR
#error "HP_CORPUS_DIR must point at tests/corpus"
#endif

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
    SCOPED_TRACE("aborted " + std::to_string(i));
    const AbortedSegment& a = optimized.aborted()[i];
    const AbortedSegment& b = reference.aborted()[i];
    EXPECT_EQ(a.task, b.task);
    EXPECT_EQ(a.worker, b.worker);
    EXPECT_TRUE(same_bits(a.start, b.start));
    EXPECT_TRUE(same_bits(a.abort_time, b.abort_time));
  }
  EXPECT_TRUE(same_bits(optimized.makespan(), reference.makespan()));
}

TaskGraph layered_graph(std::uint64_t seed, RankScheme rank) {
  util::Rng rng(seed);
  LayeredDagParams params;
  params.layers = 5;
  params.width = 10;
  TaskGraph g = random_layered_dag(params, rng);
  assign_priorities(g, rank);
  return g;
}

TEST(SoaRegression, AllRankSchemesMatchReferenceOnDags) {
  for (const RankScheme rank :
       {RankScheme::kAvg, RankScheme::kMin, RankScheme::kFifo}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE("rank " + std::to_string(static_cast<int>(rank)) +
                   " seed " + std::to_string(seed));
      const TaskGraph g = layered_graph(seed, rank);
      const Platform platform(5, 2);
      HeteroPrioOptions options;
      expect_identical(heteroprio_dag(g, platform, options),
                       heteroprio_dag_reference(g, platform, options));
      if (rank != RankScheme::kFifo) {
        HeftOptions heft_options;
        heft_options.rank = rank;
        expect_identical(heft(g, platform, heft_options),
                         heft_ref(g, platform, heft_options));
      }
    }
  }
}

TEST(SoaRegression, FaultPlansMatchRecordedEngineBehavior) {
  // The reference engine has no fault path (options.faults is a no-op
  // there), so faulty runs cannot be pinned against it. Instead these
  // checksums were recorded from the pre-SoA engine at the seed commit:
  // crashes, stragglers and task retries each exercise the recovery
  // machinery, and the SoA engine must reproduce every placement, aborted
  // segment and makespan bit-for-bit. All inputs are pure functions of the
  // seeds below, so the checksums are machine-independent.
  const std::uint64_t golden[3][4] = {
      // crashes
      {0x274bcca9d549e86dull, 0xea783c39219c08c6ull, 0x8a5fd339f8709fb5ull,
       0x0994466259422af6ull},
      // stragglers
      {0xff058bbc86ffced6ull, 0x536a378100055402ull, 0x5bf3b026427e214full,
       0x0994466259422af6ull},
      // task failures + retries
      {0xb46fccee41929bc8ull, 0xa6880d113e8149c8ull, 0x7f23ae162efd7ba0ull,
       0x353ca7c51b966cf4ull},
  };
  const Platform platform(4, 2);
  for (int kind = 0; kind < 3; ++kind) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("kind " + std::to_string(kind) + " seed " +
                   std::to_string(seed));
      const TaskGraph g = layered_graph(seed + 100, RankScheme::kAvg);
      fault::FaultSpec spec;
      if (kind == 0) {
        spec.crashes = 1;
      } else if (kind == 1) {
        spec.stragglers = 2;
      } else {
        spec.task_fail_prob = 0.15;
        spec.max_attempts = 4;
        spec.retry_backoff = 0.25;
      }
      spec.horizon = 50.0;
      spec.seed = seed;
      const fault::FaultPlan plan = fault::FaultPlan::generate(spec, platform);
      HeteroPrioOptions options;
      options.faults = &plan;
      const Schedule run = heteroprio_dag(g, platform, options);
      EXPECT_EQ(schedule_checksum(run), golden[kind][seed - 1]);
    }
  }
}

TEST(SoaRegression, CorpusWitnessesMatchReference) {
  // The distilled Thm 8 / Thm 11 / Thm 14 witnesses are exactly the
  // instances where tie-breaks decide the ratio; any divergence between the
  // engines would silently change what the corpus certifies.
  const std::vector<std::string> files = fuzz::list_corpus_files(HP_CORPUS_DIR);
  ASSERT_FALSE(files.empty());
  int replayed = 0;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    fuzz::CorpusCase entry;
    std::string error;
    ASSERT_TRUE(fuzz::load_corpus_file(path, &entry, &error)) << error;
    const std::span<const Task> tasks = entry.c.graph.tasks();
    // Fault-free replay: the reference engine has no fault path, and the
    // witnesses certify tie-break behavior, not recovery.
    HeteroPrioOptions options;
    if (entry.c.is_dag()) {
      expect_identical(heteroprio_dag(entry.c.graph, entry.c.platform, options),
                       heteroprio_dag_reference(entry.c.graph,
                                                entry.c.platform, options));
    } else {
      expect_identical(
          heteroprio(tasks, entry.c.platform, options),
          heteroprio_reference(tasks, entry.c.platform, options));
    }
    ++replayed;
  }
  EXPECT_EQ(replayed, static_cast<int>(files.size()));
}

TEST(SoaRegression, FuzzOracleDifferentialOverSoaPath) {
  // The oracle cross-checks every scheduler (validity, bound properties,
  // HP-vs-reference identity) on adversarial generated cases; a clean run
  // is the broadest differential sweep the SoA engines get.
  fuzz::RunnerOptions options;
  options.seed = 20260808;
  options.runs = 60;
  options.shrink_failures = false;
  const fuzz::FuzzReport report = fuzz::run_fuzz(options);
  EXPECT_EQ(report.cases_run, options.runs);
  EXPECT_TRUE(report.ok()) << report.failures.size() << " fuzz failures";
}

}  // namespace
}  // namespace hp
