#include "perf/perf_online.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "core/heteroprio.hpp"
#include "online/runtime.hpp"
#include "perf/bench_common.hpp"

namespace hp::perf {

namespace {

/// The platform's aggregate service rate on `tasks`: workers divided by the
/// mean best-resource duration. Arrival rates are expressed as multiples of
/// this, so "1x" queues work about as fast as the platform drains it.
double service_rate(std::span<const Task> tasks, const Platform& platform) {
  if (tasks.empty()) return 1.0;
  double total = 0.0;
  for (const Task& t : tasks) total += std::min(t.cpu_time, t.gpu_time);
  const double mean = total / static_cast<double>(tasks.size());
  return mean > 0.0 ? static_cast<double>(platform.workers()) / mean : 1.0;
}

/// Best-of-reps wall-clock measurement of one configured online run; the
/// run is deterministic, so the stats of the last repetition are the stats
/// of every repetition.
PerfOnlineSeries measure_arm(const std::string& label,
                             std::span<const Task> tasks,
                             const Platform& platform,
                             const online::OnlineOptions& options,
                             double batch_makespan, int reps) {
  online::OnlineStats stats;
  Schedule schedule = online::online_run(tasks, platform, options, &stats);
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    schedule = online::online_run(tasks, platform, options, &stats);
    best = std::min(best, seconds_since(start));
  }

  PerfOnlineSeries s;
  s.label = label;
  s.workload = "independent-uniform";
  s.n = tasks.size();
  s.makespan_stretch =
      batch_makespan > 0.0 ? schedule.makespan() / batch_makespan : 0.0;
  const auto frac = [&](std::size_t count) {
    return tasks.empty() ? 0.0
                         : static_cast<double>(count) /
                               static_cast<double>(tasks.size());
  };
  s.deadline_miss_rate = frac(stats.deadline_misses);
  s.shed_fraction = frac(stats.tasks_rejected);
  s.replan_tasks_per_sec = static_cast<double>(tasks.size()) / best;
  s.replans = stats.replans;
  s.final_mode = online::mode_name(stats.final_mode);
  std::size_t placed = 0;
  for (const Placement& p : schedule.placements()) placed += p.placed() ? 1 : 0;
  s.zero_drop = placed + stats.tasks_rejected +
                    static_cast<std::size_t>(
                        stats.recovery.tasks_unfinished) ==
                tasks.size();
  return s;
}

std::string rate_label(double factor) {
  std::ostringstream oss;
  oss << "rate-" << factor << "x";
  return oss.str();
}

}  // namespace

PerfOnlineBaseline run_perf_online(const PerfOnlineOptions& options) {
  PerfOnlineBaseline out;
  out.platform = options.platform;
  out.repetitions = std::max(1, options.repetitions);

  const Instance inst = make_instance(options.independent_n);
  const auto tasks = inst.tasks();
  const double batch_makespan =
      heteroprio(tasks, options.platform).makespan();
  const double base_rate = service_rate(tasks, options.platform);

  const auto note = [](const PerfOnlineSeries& s) {
    std::cerr << "[perf-online] " << s.label << ": stretch "
              << s.makespan_stretch << ", miss rate " << s.deadline_miss_rate
              << ", shed " << s.shed_fraction << ", "
              << s.replan_tasks_per_sec / 1e6 << "M tasks/s, final mode "
              << s.final_mode << '\n';
  };

  for (const double factor : options.rate_factors) {
    online::ArrivalSpec spec;
    spec.rate = factor * base_rate;
    spec.deadline_factor = options.deadline_factor;
    spec.seed = 1;
    const online::ArrivalPlan arrivals =
        online::ArrivalPlan::generate(spec, tasks);
    online::OnlineOptions run;
    run.arrivals = &arrivals;
    PerfOnlineSeries s =
        measure_arm(rate_label(factor), tasks, options.platform, run,
                    batch_makespan, out.repetitions);
    s.rate = spec.rate;
    out.series.push_back(s);
    note(out.series.back());
  }

  // Saturating arm: arrivals far above the service rate against a small
  // admission watermark with rejection — the run must end outside healthy
  // mode (incidents happened) while still accounting for every task.
  {
    online::ArrivalSpec spec;
    spec.rate = 8.0 * base_rate;
    spec.deadline_factor = options.deadline_factor;
    spec.seed = 2;
    const online::ArrivalPlan arrivals =
        online::ArrivalPlan::generate(spec, tasks);
    online::OnlineOptions run;
    run.arrivals = &arrivals;
    run.watermark_high =
        static_cast<std::size_t>(options.platform.workers()) * 2;
    run.shed_policy = online::ShedPolicy::kReject;
    PerfOnlineSeries s = measure_arm("saturating", tasks, options.platform,
                                     run, batch_makespan, out.repetitions);
    s.rate = spec.rate;
    out.series.push_back(s);
    note(out.series.back());
  }
  return out;
}

std::string perf_online_to_json(const PerfOnlineBaseline& baseline) {
  std::ostringstream out = open_document({.schema = kOnlineSchema,
                                          .platform = baseline.platform,
                                          .repetitions = baseline.repetitions});
  out << "  \"warmup_runs\": 1,\n";
  write_rows(out, "series", baseline.series,
             [](std::ostream& row, const PerfOnlineSeries& s) {
               row << "{\"label\": \"" << s.label << "\", "
                   << "\"workload\": \"" << s.workload << "\", "
                   << "\"n\": " << s.n << ", "
                   << "\"rate\": " << s.rate << ", "
                   << "\"makespan_stretch\": " << s.makespan_stretch << ", "
                   << "\"deadline_miss_rate\": " << s.deadline_miss_rate
                   << ", "
                   << "\"shed_fraction\": " << s.shed_fraction << ", "
                   << "\"replan_tasks_per_sec\": " << s.replan_tasks_per_sec
                   << ", "
                   << "\"replans\": " << s.replans << ", "
                   << "\"final_mode\": \"" << s.final_mode << "\", "
                   << "\"zero_drop\": " << (s.zero_drop ? "true" : "false")
                   << "}";
             });
  out << "\n}\n";
  return out.str();
}

bool validate_perf_online_json(const std::string& json_text,
                               std::string* error) {
  obs::JsonValue doc;
  if (!parse_bench_json(json_text, kOnlineSchema, &doc, error)) return false;
  const obs::JsonArray* series = array_field(doc, "series");
  if (series == nullptr) {
    if (error != nullptr) *error = "missing series array";
    return false;
  }

  std::vector<std::string> labels;
  std::string problems;
  const auto problem = [&](const std::string& why) {
    if (!problems.empty()) problems += "; ";
    problems += why;
  };
  for (const obs::JsonValue& row : *series) {
    const std::string label = string_field(row, "label");
    if (label.empty()) {
      problem("series entry without label");
      continue;
    }
    labels.push_back(label);
    const std::optional<double> stretch = number_field(row, "makespan_stretch");
    const std::optional<double> miss = number_field(row, "deadline_miss_rate");
    const std::optional<double> shed = number_field(row, "shed_fraction");
    const std::optional<double> rate = number_field(row, "replan_tasks_per_sec");
    if (!stretch || *stretch <= 0.0) {
      problem(label + " has no positive makespan_stretch");
    }
    if (!miss || *miss < 0.0 || *miss > 1.0) {
      problem(label + " deadline_miss_rate outside [0, 1]");
    }
    if (!shed || *shed < 0.0 || *shed > 1.0) {
      problem(label + " shed_fraction outside [0, 1]");
    }
    if (!rate || *rate <= 0.0) {
      problem(label + " has no positive replan_tasks_per_sec");
    }
    // The zero-silent-drop invariant is part of the document contract.
    if (!true_field(row, "zero_drop")) {
      problem(label + " does not assert zero_drop");
    }
    if (label == "rate-0x" && std::abs(stretch.value_or(0.0) - 1.0) > 1e-9) {
      problem("rate-0x stretch is not exactly 1 (the bitwise anchor)");
    }
    if (label == "saturating") {
      const std::string mode = string_field(row, "final_mode");
      if (mode == "healthy" || mode.empty()) {
        problem("saturating arm ended in mode '" + mode +
                "', expected degraded operation");
      }
      if (shed.value_or(0.0) <= 0.0) problem("saturating arm shed nothing");
    }
  }
  if (const std::string missing =
          missing_series({"rate-0x", "saturating"}, labels);
      !missing.empty()) {
    problem(missing);
  }
  if (problems.empty()) return true;
  if (error != nullptr) *error = problems;
  return false;
}

}  // namespace hp::perf
