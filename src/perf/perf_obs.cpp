#include "perf/perf_obs.hpp"

#include <algorithm>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "obs/profile.hpp"
#include "perf/bench_common.hpp"

namespace hp::perf {

namespace {

/// Paired best-of measurement of one workload: the two arms alternate
/// (baseline, instrumented, baseline, ...) inside one loop so slow drift —
/// frequency ramps, background load — biases neither arm, and each arm's
/// best time is its least-perturbed run. One untimed warm-up per arm pays
/// the first-touch page faults before any timed repetition.
template <typename Baseline, typename Instrumented>
PerfObsSeries measure_pair(const std::string& workload, std::size_t n,
                           int reps, Baseline&& baseline,
                           Instrumented&& instrumented) {
  baseline();
  instrumented();
  double best_base = std::numeric_limits<double>::infinity();
  double best_inst = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    auto start = Clock::now();
    baseline();
    best_base = std::min(best_base, seconds_since(start));
    start = Clock::now();
    instrumented();
    best_inst = std::min(best_inst, seconds_since(start));
  }
  PerfObsSeries s;
  s.workload = workload;
  s.algorithm = "HeteroPrio";
  s.n = n;
  s.baseline_tasks_per_sec = static_cast<double>(n) / best_base;
  s.instrumented_tasks_per_sec = static_cast<double>(n) / best_inst;
  s.overhead_fraction =
      s.baseline_tasks_per_sec / s.instrumented_tasks_per_sec - 1.0;
  return s;
}

}  // namespace

PerfObsBaseline run_obs_overhead(const PerfObsOptions& options) {
  PerfObsBaseline out;
  out.platform = options.platform;
  out.repetitions = std::max(1, options.repetitions);
  out.budget = options.budget;

  const auto note = [](const PerfObsSeries& s) {
    std::cerr << "[perf-obs] " << s.workload << " n=" << s.n << ": "
              << s.baseline_tasks_per_sec / 1e6 << "M -> "
              << s.instrumented_tasks_per_sec / 1e6 << "M tasks/s ("
              << s.overhead_fraction * 100.0 << "% overhead)\n";
  };

  // A fresh collector per arm invocation would time collector construction,
  // not recording; one long-lived collector per workload matches how a
  // runtime system would hold it for the process lifetime.
  {
    const Instance inst = make_instance(options.independent_n);
    const auto tasks = inst.tasks();
    obs::MetricsCollector collector;
    HeteroPrioOptions instrumented;
    instrumented.metrics = &collector;
    out.series.push_back(measure_pair(
        "independent-uniform", options.independent_n, out.repetitions,
        [&] { (void)heteroprio(tasks, options.platform); },
        [&] { (void)heteroprio(tasks, options.platform, instrumented); }));
    note(out.series.back());
  }
  {
    TaskGraph graph = cholesky_dag(options.cholesky_tiles);
    assign_priorities(graph, RankScheme::kAvg);
    obs::MetricsCollector collector;
    HeteroPrioOptions instrumented;
    instrumented.metrics = &collector;
    out.series.push_back(measure_pair(
        "cholesky", graph.size(), out.repetitions,
        [&] { (void)heteroprio_dag(graph, options.platform); },
        [&] { (void)heteroprio_dag(graph, options.platform, instrumented); }));
    note(out.series.back());
  }
  return out;
}

std::string perf_obs_to_json(const PerfObsBaseline& baseline) {
  std::ostringstream out = open_document({.schema = kObsSchema,
                                          .platform = baseline.platform,
                                          .repetitions = baseline.repetitions});
  out << "  \"warmup_runs\": 1,\n"
      << "  \"budget\": " << baseline.budget << ",\n";
  write_rows(out, "series", baseline.series,
             [](std::ostream& row, const PerfObsSeries& s) {
               row << "{\"workload\": \"" << s.workload << "\", "
                   << "\"algorithm\": \"" << s.algorithm << "\", "
                   << "\"n\": " << s.n << ", "
                   << "\"baseline_tasks_per_sec\": "
                   << s.baseline_tasks_per_sec << ", "
                   << "\"instrumented_tasks_per_sec\": "
                   << s.instrumented_tasks_per_sec << ", "
                   << "\"overhead_fraction\": " << s.overhead_fraction << "}";
             });
  out << "\n}\n";
  return out.str();
}

bool validate_perf_obs_json(const std::string& json_text, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  obs::JsonValue doc;
  if (!parse_bench_json(json_text, kObsSchema, &doc, error)) return false;
  const std::optional<double> budget = number_field(doc, "budget");
  if (!budget || *budget <= 0.0) return fail("missing positive budget field");
  const obs::JsonArray* series = array_field(doc, "series");
  if (series == nullptr) return fail("missing series array");

  std::vector<std::string> seen;
  for (const obs::JsonValue& row : *series) {
    const std::string workload = string_field(row, "workload");
    const std::optional<double> base =
        number_field(row, "baseline_tasks_per_sec");
    const std::optional<double> inst =
        number_field(row, "instrumented_tasks_per_sec");
    if (workload.empty()) return fail("series entry without workload");
    if (!base || *base <= 0.0 || !inst || *inst <= 0.0) {
      return fail("series entry for " + workload +
                  " has no positive baseline/instrumented rate");
    }
    if (!number_field(row, "overhead_fraction")) {
      return fail("series entry for " + workload +
                  " has no finite overhead_fraction");
    }
    seen.push_back(workload);
  }
  const std::string missing =
      missing_series({"independent-uniform", "cholesky"}, seen);
  return missing.empty() || fail(missing);
}

bool check_obs_budget(const std::string& json_text, double budget,
                      std::string* error) {
  obs::JsonValue doc;
  if (!parse_bench_json(json_text, kObsSchema, &doc, error)) return false;
  if (budget <= 0.0) budget = number_field(doc, "budget").value_or(0.0);
  if (budget <= 0.0) {
    if (error != nullptr) *error = "no budget to enforce";
    return false;
  }

  const obs::JsonArray* series = array_field(doc, "series");
  if (series == nullptr) {
    if (error != nullptr) *error = "missing series array";
    return false;
  }
  // Name every series over budget, not just the first. A missing or
  // non-finite overhead is over any budget.
  std::string over;
  for (const obs::JsonValue& row : *series) {
    const double overhead = number_field(row, "overhead_fraction")
                                .value_or(std::numeric_limits<double>::infinity());
    if (overhead <= budget) continue;
    std::ostringstream line;
    line.precision(3);
    line << string_field(row, "workload") << " at " << overhead * 100.0
         << "% (budget " << budget * 100.0 << "%)";
    over += (over.empty() ? "" : ", ") + line.str();
  }
  if (!over.empty()) {
    if (error != nullptr) *error = "overhead over budget: " + over;
    return false;
  }
  return true;
}

}  // namespace hp::perf
