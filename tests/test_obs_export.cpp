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

TEST(ObsTextLog, SkipsKindsOutsideTheLog) {
  const std::vector<Event> events{
      {.time = 0.0, .kind = EventKind::kReady, .task = 0},
      {.time = 0.0, .kind = EventKind::kSpoliateAttempt, .worker = 1},
      {.time = 0.0, .kind = EventKind::kQueueDepth, .value = 1.0},
      {.time = 0.0, .kind = EventKind::kIdleBegin, .worker = 0},
  };
  EXPECT_EQ(obs::text_from_events(events, Platform(1, 1)), "");
  EXPECT_EQ(obs::text_from_events({}, Platform(1, 1)), "");
}

TEST(ObsTextLog, KeepsStreamOrder) {
  const std::vector<Event> events{
      {.time = 0.0, .kind = EventKind::kStart, .task = 3, .worker = 1},
      {.time = 2.5, .kind = EventKind::kComplete, .task = 3, .worker = 1},
  };
  EXPECT_EQ(obs::text_from_events(events, Platform(1, 1)),
            "[t=0] start task 3 on GPU#1\n"
            "[t=2.5] complete task 3 on GPU#1\n");
}

TEST(ObsTextLog, RendersEventDetails) {
  const std::vector<Event> events{
      {.time = 1.25, .kind = EventKind::kStart, .task = 7, .worker = 1}};
  const std::string text = obs::text_from_events(events, Platform(1, 1));
  EXPECT_NE(text.find("t=1.25"), std::string::npos);
  EXPECT_NE(text.find("start"), std::string::npos);
  EXPECT_NE(text.find("task 7"), std::string::npos);
  EXPECT_NE(text.find("GPU#1"), std::string::npos);
}

TEST(ObsTextLog, SpoliationShowsVictim) {
  const std::vector<Event> events{{.time = 3.0,
                                   .kind = EventKind::kSpoliateCommit,
                                   .task = 2,
                                   .worker = 1,
                                   .victim = 0}};
  const std::string text = obs::text_from_events(events, Platform(1, 1));
  EXPECT_NE(text.find("spoliate"), std::string::npos);
  EXPECT_NE(text.find("spoliated from CPU#0"), std::string::npos);
}

TEST(ObsTextLog, AllKindsRender) {
  const std::vector<Event> events{
      {.time = 0.0, .kind = EventKind::kStart, .task = 0, .worker = 0},
      {.time = 1.0, .kind = EventKind::kAbort, .task = 0, .worker = 0},
      {.time = 1.0,
       .kind = EventKind::kSpoliateCommit,
       .task = 0,
       .worker = 1,
       .victim = 0},
      {.time = 2.0, .kind = EventKind::kComplete, .task = 0, .worker = 1},
  };
  const std::string text = obs::text_from_events(events, Platform(1, 1));
  for (const char* word : {"start", "abort", "spoliate", "complete"}) {
    EXPECT_NE(text.find(word), std::string::npos) << word;
  }
}

#ifndef HP_OBS_OFF  // the recorder stays empty without obs
TEST(ObsTextLog, QuickstartRunMatchesGoldenLog) {
  // The six independent tasks of examples/quickstart on 2 CPUs + 1 GPU,
  // where the GPU spoliates task 3 from CPU#1 at t=4.
  const std::vector<Task> tasks{Task{16.0, 1.0}, Task{12.0, 1.0},
                                Task{8.0, 2.0},  Task{6.0, 2.0},
                                Task{2.0, 4.0},  Task{2.5, 5.0}};
  const Platform platform(2, 1);
  obs::EventRecorder rec;
  HeteroPrioOptions options;
  options.sink = &rec;
  (void)heteroprio(tasks, platform, options);
  EXPECT_EQ(obs::text_from_events(rec.events(), platform),
            "[t=0] start task 0 on GPU#2\n"
            "[t=0] start task 5 on CPU#0\n"
            "[t=0] start task 4 on CPU#1\n"
            "[t=1] complete task 0 on GPU#2\n"
            "[t=1] start task 1 on GPU#2\n"
            "[t=2] complete task 4 on CPU#1\n"
            "[t=2] complete task 1 on GPU#2\n"
            "[t=2] start task 2 on GPU#2\n"
            "[t=2] start task 3 on CPU#1\n"
            "[t=2.5] complete task 5 on CPU#0\n"
            "[t=4] complete task 2 on GPU#2\n"
            "[t=4] abort task 3 on CPU#1\n"
            "[t=4] spoliate task 3 on GPU#2 (spoliated from CPU#1)\n"
            "[t=4] start task 3 on GPU#2\n"
            "[t=6] complete task 3 on GPU#2\n");
}
#endif  // HP_OBS_OFF

}  // namespace
}  // namespace hp
