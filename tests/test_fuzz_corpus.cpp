// Corpus round-trip and the standing tier-1 gate: every checked-in corpus
// file under tests/corpus/ replays green on every scheduler it names.

#include <gtest/gtest.h>

#include "fuzz/corpus.hpp"

#ifndef HP_CORPUS_DIR
#error "HP_CORPUS_DIR must point at tests/corpus"
#endif

namespace hp::fuzz {
namespace {

TEST(FuzzCorpus, RoundTripsThroughText) {
  CorpusCase entry;
  entry.c = generate_case(55, 4);
  entry.schedulers = {SchedulerId::kHp, SchedulerId::kDualHp};
  entry.props = kPropValidity | kPropLowerBound;
  entry.min_ratio = 1.25;

  CorpusCase back;
  std::string error;
  ASSERT_TRUE(corpus_from_text(corpus_to_text(entry), &back, &error)) << error;
  EXPECT_EQ(back.c.platform.cpus(), entry.c.platform.cpus());
  EXPECT_EQ(back.c.platform.gpus(), entry.c.platform.gpus());
  EXPECT_EQ(back.schedulers, entry.schedulers);
  EXPECT_EQ(back.props, entry.props);
  EXPECT_DOUBLE_EQ(back.min_ratio, entry.min_ratio);
  ASSERT_EQ(back.c.graph.size(), entry.c.graph.size());
  EXPECT_EQ(back.c.graph.num_edges(), entry.c.graph.num_edges());
  for (std::size_t i = 0; i < back.c.graph.size(); ++i) {
    // Bitwise: corpus files must reproduce the exact instance, or witness
    // tie-breaking silently changes.
    EXPECT_EQ(back.c.graph.tasks()[i].cpu_time,
              entry.c.graph.tasks()[i].cpu_time);
    EXPECT_EQ(back.c.graph.tasks()[i].gpu_time,
              entry.c.graph.tasks()[i].gpu_time);
    EXPECT_EQ(back.c.graph.tasks()[i].priority,
              entry.c.graph.tasks()[i].priority);
  }
  EXPECT_EQ(back.c.faults, entry.c.faults);
}

TEST(FuzzCorpus, RejectsMalformedDirectives) {
  CorpusCase out;
  std::string error;
  EXPECT_FALSE(corpus_from_text("# fuzz: cpus=two\ntask 1 1\n", &out, &error));
  EXPECT_NE(error.find("cpus"), std::string::npos);
  EXPECT_FALSE(
      corpus_from_text("# fuzz: schedulers=warp\ntask 1 1\n", &out, &error));
  EXPECT_NE(error.find("warp"), std::string::npos);
  EXPECT_FALSE(corpus_from_text("# fuzz: wat=1\ntask 1 1\n", &out, &error));
  EXPECT_NE(error.find("wat"), std::string::npos);
  EXPECT_FALSE(corpus_from_text("# fuzz: cpus=1\n", &out, &error));
  EXPECT_NE(error.find("no tasks"), std::string::npos);
  EXPECT_FALSE(
      corpus_from_text("# fuzz: cpus=0 gpus=0\ntask 1 1\n", &out, &error));
  EXPECT_NE(error.find("workers"), std::string::npos);
}

TEST(FuzzCorpus, MinRatioViolationIsReported) {
  CorpusCase entry;
  std::string error;
  ASSERT_TRUE(corpus_from_text(
      "# fuzz: cpus=1 gpus=1 schedulers=hp props=validity\n"
      "# fuzz: min-ratio=10\n"
      "task 1 2\n",
      &entry, &error))
      << error;
  const CorpusVerdict verdict = replay_corpus_case(entry);
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.failures.front().property, "min-ratio");
}

TEST(FuzzCorpus, EmbeddedFaultPlansRoundTrip) {
  CorpusCase entry;
  std::string error;
  ASSERT_TRUE(corpus_from_text(
      "# fuzz: cpus=2 gpus=1\n"
      "# hpf: faultplan v1\n"
      "# hpf: seed 9\n"
      "# hpf: task-fail-prob 0.5\n"
      "# hpf: max-attempts 3\n"
      "# hpf: retry-backoff 0\n"
      "# hpf: crash 1 2.5\n"
      "task 1 2\ntask 2 1\n",
      &entry, &error))
      << error;
  ASSERT_TRUE(entry.c.has_faults());
  ASSERT_EQ(entry.c.faults.crashes().size(), 1u);
  EXPECT_EQ(entry.c.faults.crashes()[0].worker, 1);
  EXPECT_EQ(entry.c.faults.max_attempts(), 3);
}

TEST(FuzzCorpus, CheckedInCorpusReplaysGreen) {
  const std::vector<std::string> files = list_corpus_files(HP_CORPUS_DIR);
  ASSERT_FALSE(files.empty()) << "no corpus files under " << HP_CORPUS_DIR;
  for (const std::string& path : files) {
    CorpusCase entry;
    std::string error;
    ASSERT_TRUE(load_corpus_file(path, &entry, &error)) << error;
    const CorpusVerdict verdict = replay_corpus_case(entry);
    EXPECT_GT(verdict.properties_checked, 0) << path;
    for (const PropertyFailure& f : verdict.failures) {
      ADD_FAILURE() << path << ": " << f.property << " [" << f.scheduler
                    << "] " << f.detail;
    }
  }
}

}  // namespace
}  // namespace hp::fuzz
