// Exporter round-trips of the metrics layer: Prometheus text exposition
// (validity, quantile series, counter import), collapsed-stack flamegraph
// format, Chrome trace running-set tracks and metrics rollup, queue-depth
// samples of replayed schedules, and the bitwise-identity guarantee of
// attaching a MetricsCollector to the engines.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "core/heteroprio.hpp"
#include "model/generators.hpp"
#include "obs/counters.hpp"
#include "obs/derive.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_flame.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/replay.hpp"
#include "util/rng.hpp"

namespace hp {
namespace {

Instance test_instance(std::size_t n, std::uint64_t seed = 42) {
  util::Rng rng(seed);
  return uniform_instance({.num_tasks = n}, rng);
}

TEST(Prometheus, ExpositionIsValidAndCarriesQuantiles) {
  obs::MetricsRegistry registry;
  registry.counter("tasks_completed") = 128.0;
  registry.gauge("peak ready depth") = 7.0;  // space must be sanitized
  obs::Histogram& wait = registry.histogram("queue_wait");
  for (int i = 1; i <= 100; ++i) wait.record(0.01 * i);

  const std::string text = obs::prometheus_text(registry);
  std::string error;
  EXPECT_TRUE(obs::validate_prometheus_text(text, &error)) << error;
  EXPECT_NE(text.find("# TYPE hp_tasks_completed counter"), std::string::npos);
  EXPECT_NE(text.find("hp_tasks_completed 128"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hp_peak_ready_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE hp_queue_wait histogram"), std::string::npos);
  EXPECT_NE(text.find("hp_queue_wait_bucket{le=\"+Inf\"} 100"),
            std::string::npos);
  EXPECT_NE(text.find("hp_queue_wait_count 100"), std::string::npos);
  EXPECT_NE(text.find("hp_queue_wait_quantile{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("hp_queue_wait_quantile{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("hp_queue_wait_max"), std::string::npos);
}

TEST(Prometheus, ValidatorRejectsMalformedDocuments) {
  std::string error;
  // Sample without a preceding # TYPE declaration.
  EXPECT_FALSE(obs::validate_prometheus_text("hp_x 1\n", &error));
  // Garbage line.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE hp_x counter\nnot a sample!\n", &error));
  // Declared family without any sample.
  EXPECT_FALSE(obs::validate_prometheus_text("# TYPE hp_x counter\n", &error));
  // Illegal metric name.
  EXPECT_FALSE(obs::validate_prometheus_text(
      "# TYPE hp-x counter\nhp-x 1\n", &error));
}

TEST(Prometheus, EmptyRegistryYieldsInvalidDocument) {
  const obs::MetricsRegistry registry;
  const std::string text = obs::prometheus_text(registry);
  std::string error;
  EXPECT_FALSE(obs::validate_prometheus_text(text, &error));
}

TEST(Flame, CollapsedStacksAreSortedFoldedLines) {
  obs::TickClock clock;
  obs::MetricsCollector collector(&clock);
  for (int i = 0; i < 3; ++i) {
    const obs::PhaseScope engine(&collector, obs::Phase::kEngine);
    const obs::PhaseScope sort(&collector, obs::Phase::kSort);
  }
  const std::string folded = obs::collapsed_stacks(collector);
  ASSERT_FALSE(folded.empty());

  std::istringstream lines(folded);
  std::string line;
  std::vector<std::string> stacks;
  while (std::getline(lines, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string frames = line.substr(0, space);
    const std::string weight = line.substr(space + 1);
    EXPECT_FALSE(frames.empty()) << line;
    // Weight is a positive integer.
    ASSERT_FALSE(weight.empty()) << line;
    for (const char c : weight) EXPECT_TRUE(c >= '0' && c <= '9') << line;
    EXPECT_NE(weight, "0") << line;
    stacks.push_back(frames);
  }
  EXPECT_TRUE(std::is_sorted(stacks.begin(), stacks.end()));
  EXPECT_NE(std::find(stacks.begin(), stacks.end(), "engine;sort"),
            stacks.end());
}

TEST(Flame, EmptyCollectorYieldsEmptyOutput) {
  const obs::MetricsCollector collector;
  EXPECT_EQ(obs::collapsed_stacks(collector), "");
}

TEST(Chrome, EmitsRunningTracksAndMetricsRollup) {
  const Instance inst = test_instance(40);
  const Platform platform(3, 1);
  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.sink = &recorder;
  const Schedule schedule = heteroprio(inst.tasks(), platform, options);

  obs::MetricsRegistry metrics;
  obs::add_to_registry(obs::counters_from_events(recorder.events(), platform),
                       &metrics);
  obs::derive_metrics(recorder.events(), platform, &metrics);

  const std::string json = obs::chrome_trace_from_events(
      recorder.events(), platform, inst.tasks(), &metrics);

  std::string error;
  EXPECT_TRUE(obs::validate_chrome_trace(json, platform, &error)) << error;
  EXPECT_NE(json.find("\"running_cpu\""), std::string::npos);
  EXPECT_NE(json.find("\"running_gpu\""), std::string::npos);
  EXPECT_NE(json.find("\"hp_metrics_rollup\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks_completed\":40"), std::string::npos);
  // Without a registry the rollup is absent but the tracks remain.
  const std::string plain =
      obs::chrome_trace_from_events(recorder.events(), platform, inst.tasks());
  EXPECT_EQ(plain.find("hp_metrics_rollup"), std::string::npos);
  EXPECT_NE(plain.find("\"running_cpu\""), std::string::npos);
}

TEST(Replay, ReplayedSchedulesCarryQueueDepthSamples) {
  const Instance inst = test_instance(12);
  const Platform platform(2, 1);
  const Schedule schedule = heft_independent(inst.tasks(), platform);
  const std::vector<obs::Event> events =
      obs::replay_schedule(schedule, platform);

  int samples = 0;
  double last = -1.0;
  double peak = 0.0;
  for (const obs::Event& e : events) {
    if (e.kind != obs::EventKind::kQueueDepth) continue;
    ++samples;
    EXPECT_GE(e.value, 0.0);
    EXPECT_NE(e.value, last) << "samples must only be emitted on change";
    last = e.value;
    peak = std::max(peak, e.value);
  }
  ASSERT_GT(samples, 0);
  // A Schedule does not record decision times, so replay approximates each
  // task's ready instant by its start instant: with 12 tasks on 3 idle
  // workers, the t=0 batch is exactly the 3 tasks starting then.
  EXPECT_GE(peak, 3.0);
}

TEST(Derive, EventStreamYieldsDistributionHistograms) {
  const Instance inst = test_instance(60);
  const Platform platform(3, 1);
  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.sink = &recorder;
  (void)heteroprio(inst.tasks(), platform, options);

  obs::MetricsRegistry registry;
  obs::derive_metrics(recorder.events(), platform, &registry);
  ASSERT_NE(registry.find_histogram("queue_wait"), nullptr);
  EXPECT_GT(registry.find_histogram("queue_wait")->count(), 0u);
  ASSERT_NE(registry.find_histogram("task_duration"), nullptr);
  EXPECT_EQ(registry.find_histogram("task_duration")->count(), 60u);
  ASSERT_NE(registry.find_histogram("busy_time_cpu"), nullptr);
  EXPECT_EQ(registry.find_histogram("busy_time_cpu")->count(), 3u);
  ASSERT_NE(registry.find_histogram("busy_time_gpu"), nullptr);
  EXPECT_EQ(registry.find_histogram("busy_time_gpu")->count(), 1u);
}

TEST(Derive, SchedulerCountersExportAsGauges) {
  const Instance inst = test_instance(30);
  const Platform platform(2, 1);
  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.sink = &recorder;
  (void)heteroprio(inst.tasks(), platform, options);

  obs::MetricsRegistry registry;
  obs::add_to_registry(obs::counters_from_events(recorder.events(), platform),
                       &registry);
  EXPECT_FALSE(registry.empty());
  ASSERT_NE(registry.find_gauge("tasks_completed"), nullptr);
  EXPECT_DOUBLE_EQ(*registry.find_gauge("tasks_completed"), 30.0);
  // Gauges only, in the glossary order the report table prints.
  EXPECT_TRUE(registry.counters().empty());
  EXPECT_TRUE(registry.histograms().empty());
  EXPECT_EQ(registry.gauges().front().name, "tasks_ready");
  EXPECT_EQ(registry.gauges().back().name, "makespan");
}

/// Placements must match exactly — attaching a collector may not change
/// one bit of the schedule.
void expect_identical(const Schedule& a, const Schedule& b) {
  ASSERT_EQ(a.num_tasks(), b.num_tasks());
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    const auto id = static_cast<TaskId>(i);
    EXPECT_EQ(a.placement(id).worker, b.placement(id).worker) << i;
    EXPECT_EQ(a.placement(id).start, b.placement(id).start) << i;
    EXPECT_EQ(a.placement(id).end, b.placement(id).end) << i;
  }
  EXPECT_EQ(a.spoliation_count(), b.spoliation_count());
}

TEST(Engine, HeteroPrioIsBitwiseIdenticalWithCollector) {
  const Instance inst = test_instance(300, 7);
  const Platform platform(4, 2);
  const Schedule plain = heteroprio(inst.tasks(), platform);
  obs::MetricsCollector collector;
  HeteroPrioOptions options;
  options.metrics = &collector;
  const Schedule instrumented = heteroprio(inst.tasks(), platform, options);
  expect_identical(plain, instrumented);
#ifndef HP_OBS_OFF
  EXPECT_EQ(collector.stats(obs::Phase::kEngine).calls, 1u);
  EXPECT_GT(collector.stats(obs::Phase::kDispatch).calls, 0u);
#endif
}

TEST(Engine, HeftIsBitwiseIdenticalWithCollector) {
  const Instance inst = test_instance(200, 9);
  const Platform platform(4, 2);
  const Schedule plain = heft_independent(inst.tasks(), platform);
  obs::MetricsCollector collector;
  const Schedule instrumented =
      heft_independent(inst.tasks(), platform, {.metrics = &collector});
  expect_identical(plain, instrumented);
#ifndef HP_OBS_OFF
  EXPECT_EQ(collector.stats(obs::Phase::kEngine).calls, 1u);
  EXPECT_GT(collector.stats(obs::Phase::kHeftRank).calls, 0u);
#endif
}

TEST(Engine, DualHpIsBitwiseIdenticalWithCollector) {
  const Instance inst = test_instance(150, 11);
  const Platform platform(4, 2);
  const Schedule plain = dualhp(inst.tasks(), platform);
  obs::MetricsCollector collector;
  const Schedule instrumented =
      dualhp(inst.tasks(), platform, {.metrics = &collector});
  expect_identical(plain, instrumented);
#ifndef HP_OBS_OFF
  EXPECT_GT(collector.stats(obs::Phase::kDualHpBisection).calls, 0u);
#endif
}

}  // namespace
}  // namespace hp
