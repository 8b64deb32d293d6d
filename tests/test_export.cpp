#include "sched/export.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/export_chrome.hpp"
#include "obs/replay.hpp"

namespace hp {
namespace {

struct Fixture {
  Platform platform{1, 1};
  std::vector<Task> tasks{Task{4.0, 1.0, 0.0, KernelKind::kGemm},
                          Task{2.0, 3.0, 0.0, KernelKind::kPotrf}};
  Schedule schedule{2};

  // One spoliation: the GPU takes DGEMM from the CPU at t=0.5, and the CPU
  // then runs DPOTRF. Each worker runs one task at a time, so the replayed
  // event stream pairs every start with its abort or completion.
  Fixture() {
    schedule.add_aborted(0, 0, 0.0, 0.5);
    schedule.place(0, 1, 0.5, 1.5);
    schedule.place(1, 0, 0.5, 2.5);
  }
};

/// A static plan's Chrome trace: the schedule replayed as an event stream.
std::string chrome_trace(const Fixture& f) {
  return obs::chrome_trace_from_events(
      obs::replay_schedule(f.schedule, f.platform), f.platform, f.tasks);
}

TEST(ChromeTrace, ContainsEventsAndLaneNames) {
  const Fixture f;
  const std::string json = chrome_trace(f);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("DGEMM"), std::string::npos);
  EXPECT_NE(json.find("DPOTRF"), std::string::npos);
  EXPECT_NE(json.find("(aborted)"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(json, f.platform, &error)) << error;
}

TEST(ChromeTrace, BalancedBracesAndQuotes) {
  const Fixture f;
  const std::string json = chrome_trace(f);
  int depth = 0;
  int quotes = 0;
  for (char ch : json) {
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (ch == '"') ++quotes;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(quotes % 2, 0);
}

TEST(ChromeTrace, DurationsInMicroseconds) {
  const Fixture f;
  const std::string json = chrome_trace(f);
  // task 1 runs 2.0 time units -> "dur":2000
  EXPECT_NE(json.find("\"dur\":2000"), std::string::npos);
}

TEST(SvgGantt, WellFormedAndLabeled) {
  const Fixture f;
  const std::string svg = to_svg_gantt(f.schedule, f.tasks, f.platform);
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("CPU0"), std::string::npos);
  EXPECT_NE(svg.find("GPU1"), std::string::npos);
  EXPECT_NE(svg.find("makespan = 2.5"), std::string::npos);
  EXPECT_NE(svg.find("<title>DGEMM</title>"), std::string::npos);
}

TEST(SvgGantt, AbortedSegmentsToggle) {
  const Fixture f;
  const std::string with =
      to_svg_gantt(f.schedule, f.tasks, f.platform, {.show_aborted = true});
  EXPECT_NE(with.find("aborted by spoliation"), std::string::npos);
  const std::string without =
      to_svg_gantt(f.schedule, f.tasks, f.platform, {.show_aborted = false});
  EXPECT_EQ(without.find("aborted by spoliation"), std::string::npos);
}

TEST(SvgGantt, RectanglePerPlacedTask) {
  const Fixture f;
  const std::string svg =
      to_svg_gantt(f.schedule, f.tasks, f.platform, {.show_aborted = false});
  std::size_t rects = 0;
  for (std::size_t pos = svg.find("<rect"); pos != std::string::npos;
       pos = svg.find("<rect", pos + 1)) {
    ++rects;
  }
  EXPECT_EQ(rects, 2u);
}

}  // namespace
}  // namespace hp
