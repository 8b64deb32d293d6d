#include "io/serialize.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "linalg/cholesky.hpp"

namespace hp::io {
namespace {

TEST(IoInstance, RoundTrip) {
  Instance inst("round-trip");
  inst.add(Task{1.5, 0.25, 2.0, KernelKind::kGemm});
  inst.add(Task{3.0, 3.0});
  const std::string text = instance_to_text(inst);
  std::string error;
  const auto parsed = instance_from_text(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ(parsed->name(), "round-trip");
  EXPECT_DOUBLE_EQ((*parsed)[0].cpu_time, 1.5);
  EXPECT_DOUBLE_EQ((*parsed)[0].gpu_time, 0.25);
  EXPECT_DOUBLE_EQ((*parsed)[0].priority, 2.0);
  EXPECT_EQ((*parsed)[0].kind, KernelKind::kGemm);
  EXPECT_EQ((*parsed)[1].kind, KernelKind::kGeneric);
}

TEST(IoInstance, RejectsNonPositiveTimes) {
  std::string error;
  EXPECT_FALSE(instance_from_text("task 0 1\n", &error).has_value());
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(instance_from_text("task 1 -2\n", &error).has_value());
}

TEST(IoInstance, RejectsEdges) {
  EXPECT_FALSE(instance_from_text("task 1 1\ntask 1 1\nedge 0 1\n").has_value());
}

TEST(IoInstance, RejectsUnknownKeyword) {
  std::string error;
  EXPECT_FALSE(instance_from_text("bogus 1 2\n", &error).has_value());
  EXPECT_NE(error.find("bogus"), std::string::npos);
}

TEST(IoInstance, CommentsAndBlankLinesIgnored) {
  const auto parsed =
      instance_from_text("# header\n\ntask 1 2\n# trailing\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(IoGraph, RoundTripCholesky) {
  const TaskGraph original = cholesky_dag(5);
  const std::string text = graph_to_text(original);
  std::string error;
  const auto parsed = graph_from_text(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  ASSERT_EQ(parsed->size(), original.size());
  EXPECT_EQ(parsed->num_edges(), original.num_edges());
  EXPECT_EQ(parsed->name(), original.name());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto id = static_cast<TaskId>(i);
    EXPECT_DOUBLE_EQ(parsed->task(id).cpu_time, original.task(id).cpu_time);
    EXPECT_EQ(parsed->task(id).kind, original.task(id).kind);
    const auto a = original.successors(id);
    const auto b = parsed->successors(id);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) EXPECT_EQ(a[s], b[s]);
  }
}

TEST(IoGraph, RejectsBadEdges) {
  EXPECT_FALSE(graph_from_text("task 1 1\nedge 0 5\n").has_value());
  EXPECT_FALSE(graph_from_text("task 1 1\nedge 0 0\n").has_value());
  EXPECT_FALSE(graph_from_text("task 1 1\nedge -1 0\n").has_value());
}

TEST(IoGraph, RejectsCycle) {
  std::string error;
  EXPECT_FALSE(
      graph_from_text("task 1 1\ntask 1 1\nedge 0 1\nedge 1 0\n", &error)
          .has_value());
  EXPECT_NE(error.find("cycle"), std::string::npos);
}

TEST(IoGraph, ParsedGraphIsFinalized) {
  const auto parsed = graph_from_text("task 1 1\ntask 1 1\nedge 0 1\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->finalized());
  EXPECT_EQ(parsed->successors(0).size(), 1u);
}

// Strict diagnostics: every parse error names the offending line and field,
// so a fuzz repro that fails to load tells you exactly where.

TEST(IoDiagnostics, BadTaskFieldNamesTheFieldAndLine) {
  std::string error;
  EXPECT_FALSE(instance_from_text("task 1 1\ntask abc 2\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("cpu_time"), std::string::npos) << error;
  EXPECT_NE(error.find("abc"), std::string::npos) << error;

  EXPECT_FALSE(instance_from_text("task 1 nan\n", &error));
  EXPECT_NE(error.find("gpu_time"), std::string::npos) << error;
}

TEST(IoDiagnostics, MissingTaskFieldsAreCounted) {
  std::string error;
  EXPECT_FALSE(instance_from_text("task 1\n", &error));
  EXPECT_NE(error.find("at least 2 fields"), std::string::npos) << error;
  EXPECT_NE(error.find("got 1"), std::string::npos) << error;
}

TEST(IoDiagnostics, UnknownKernelIsAnErrorNotGeneric) {
  std::string error;
  EXPECT_FALSE(instance_from_text("task 1 1 2 warp\n", &error));
  EXPECT_NE(error.find("kernel"), std::string::npos) << error;
  EXPECT_NE(error.find("warp"), std::string::npos) << error;
}

TEST(IoDiagnostics, TrailingTokensAreRejected) {
  std::string error;
  EXPECT_FALSE(instance_from_text("task 1 1 2 gemm extra\n", &error));
  EXPECT_NE(error.find("trailing"), std::string::npos) << error;
}

TEST(IoDiagnostics, NamelessNameLineIsRejected) {
  std::string error;
  EXPECT_FALSE(instance_from_text("name   \ntask 1 1\n", &error));
  EXPECT_NE(error.find("name"), std::string::npos) << error;
  EXPECT_NE(error.find("line 1"), std::string::npos) << error;
}

TEST(IoDiagnostics, EdgeDiagnosticsNameTheProblem) {
  std::string error;
  EXPECT_FALSE(graph_from_text("task 1 1\ntask 1 1\nedge 0\n", &error));
  EXPECT_NE(error.find("line 3"), std::string::npos) << error;
  EXPECT_NE(error.find("exactly 2 fields"), std::string::npos) << error;

  EXPECT_FALSE(graph_from_text("task 1 1\nedge 0 1.5\n", &error));
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

TEST(IoFiles, SaveAndLoad) {
  // Named after this test and process: ctest runs each case as its own
  // process, in parallel, so a fixed name would be shared between them.
  const std::string path =
      ::testing::TempDir() + "hp_io_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      std::to_string(::getpid()) + ".txt";
  EXPECT_TRUE(save_text_file(path, "hello\n"));
  const auto loaded = load_text_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, "hello\n");
  std::remove(path.c_str());
}

TEST(IoFiles, LoadMissingFileFails) {
  EXPECT_FALSE(load_text_file("/nonexistent-dir-xyz/nope.txt").has_value());
}

}  // namespace
}  // namespace hp::io
