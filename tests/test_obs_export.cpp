#include "obs/export_chrome.hpp"
#include "obs/export_csv.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "obs/json.hpp"
#include "obs/recorder.hpp"

namespace hp {
namespace {

using obs::Event;
using obs::EventKind;

// Fig 7-style run: Cholesky DAG on a CPU-heavy platform, which is known to
// spoliate (the GPU grabs CPU-friendly kernels the CPUs then reclaim).
obs::EventRecorder record_cholesky_run(const Platform& platform) {
  TaskGraph graph = cholesky_dag(6);
  assign_priorities(graph, RankScheme::kMin);
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  (void)heteroprio_dag(graph, platform, options);
  return rec;
}

TEST(ObsCsv, RoundTripIsExact) {
  const Platform platform(3, 1);
  const obs::EventRecorder rec = record_cholesky_run(platform);
  ASSERT_GT(rec.size(), 0u);
  ASSERT_GT(rec.count(EventKind::kSpoliateCommit), 0u);

  const std::string csv = obs::csv_from_events(rec.events());
  std::vector<Event> parsed;
  std::string error;
  ASSERT_TRUE(obs::events_from_csv(csv, &parsed, &error)) << error;
  ASSERT_EQ(parsed.size(), rec.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i], rec.events()[i]) << "event " << i;
  }
  // Emit -> parse -> emit is the identity.
  EXPECT_EQ(obs::csv_from_events(parsed), csv);
}

TEST(ObsCsv, RejectsMalformedDocuments) {
  std::vector<Event> parsed;
  std::string error;
  EXPECT_FALSE(obs::events_from_csv("not,a,header\n", &parsed, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(obs::events_from_csv(
      "time,kind,task,worker,victim,value\n1.0,no-such-kind,0,0,-1,0\n",
      &parsed, &error));
  EXPECT_FALSE(obs::events_from_csv(
      "time,kind,task,worker,victim,value\n1.0,ready,0\n", &parsed, &error));
}

TEST(ObsChromeTrace, CholeskyTraceValidatesWithOneTrackPerWorker) {
  const Platform platform(3, 1);
  TaskGraph graph = cholesky_dag(6);
  assign_priorities(graph, RankScheme::kMin);
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  (void)heteroprio_dag(graph, platform, options);
  ASSERT_GT(rec.count(EventKind::kSpoliateCommit), 0u);

  const std::string json =
      obs::chrome_trace_from_events(rec.events(), platform, graph.tasks());
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(json, platform, &error)) << error;
  // Spoliation is visible in the trace, and slices carry kernel names.
  EXPECT_NE(json.find("spoliate-commit"), std::string::npos);
  EXPECT_NE(json.find("ready_queue_depth"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(ObsChromeTrace, ValidatorCatchesMissingTracks) {
  const Platform platform(1, 1);
  const obs::EventRecorder rec = record_cholesky_run(platform);
  const std::string json =
      obs::chrome_trace_from_events(rec.events(), platform);
  std::string error;
  // Valid against the platform it was produced for...
  EXPECT_TRUE(obs::validate_chrome_trace(json, platform, &error)) << error;
  // ...but a larger platform expects thread_name records that are absent.
  EXPECT_FALSE(obs::validate_chrome_trace(json, Platform(4, 2), &error));
  EXPECT_FALSE(error.empty());
}

TEST(ObsChromeTrace, ValidatorRejectsGarbage) {
  std::string error;
  EXPECT_FALSE(obs::validate_chrome_trace("{", std::nullopt, &error));
  EXPECT_FALSE(obs::validate_chrome_trace("{\"notTraceEvents\":[]}",
                                          std::nullopt, &error));
}

TEST(ObsJson, NestingIsCappedWithItsOwnError) {
  // `{"x": ` then `depth - 1` arrays: `depth` levels in all.
  const auto nested = [](int depth) {
    const auto arrays = static_cast<std::size_t>(depth - 1);
    return "{\"x\": " + std::string(arrays, '[') + std::string(arrays, ']') +
           "}";
  };
  obs::JsonValue doc;
  std::string error;
  EXPECT_TRUE(obs::json_parse(nested(obs::kJsonMaxDepth), &doc, &error))
      << error;
  EXPECT_FALSE(obs::json_parse(nested(obs::kJsonMaxDepth + 1), &doc, &error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;

  // Far past the cap the parser still returns an error instead of
  // recursing until the stack overflows.
  EXPECT_FALSE(
      obs::json_parse("{\"x\": " + std::string(2000000, '['), &doc, &error));
  EXPECT_NE(error.find("nesting deeper than"), std::string::npos) << error;
}

TEST(ObsChromeTrace, AbortedSlicesAreMarked) {
  // A spoliated run produces an explicit "(aborted)" slice on the victim.
  const std::vector<Task> tasks{Task{1.0, 10.0}};
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  (void)heteroprio(tasks, Platform(1, 1), options);
  ASSERT_EQ(rec.count(EventKind::kAbort), 1u);
  const std::string json =
      obs::chrome_trace_from_events(rec.events(), Platform(1, 1));
  EXPECT_NE(json.find("(aborted)"), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(json, Platform(1, 1), &error))
      << error;
}

}  // namespace
}  // namespace hp
