#pragma once
// Observability overhead budget: instrumented-vs-disabled throughput of the
// HeteroPrio engine on the two reference workloads (large independent
// instance, Cholesky DAG). "Disabled" is a null metrics pointer — exactly
// the configuration -DHP_OBS_OFF lowers to, minus one never-taken pointer
// test per scope — so the measured gap is the full cost of attaching a
// collector with default sampling. Emitted as BENCH_obs.json (schema
// "hp-bench-obs/v1", documented in docs/benchmarks.md); `hp_sched
// perf-check` enforces the budget recorded in the document.

#include <string>
#include <string_view>
#include <vector>

#include "model/platform.hpp"

namespace hp::perf {

inline constexpr std::string_view kObsSchema = "hp-bench-obs/v1";

struct PerfObsOptions {
  /// Independent-instance size (tasks).
  std::size_t independent_n = 100000;
  /// Cholesky tile count (N=40 is ~11k tasks).
  int cholesky_tiles = 40;
  /// Timed repetitions per arm; the best one is reported. The two arms are
  /// interleaved (baseline, instrumented, baseline, ...) so clock-frequency
  /// drift hits both equally, and one untimed warm-up per arm precedes them.
  int repetitions = 7;
  Platform platform{20, 4};
  /// Maximum tolerated overhead_fraction, recorded into the document.
  double budget = 0.02;
};

/// One workload's paired measurement.
struct PerfObsSeries {
  std::string workload;   // independent-uniform | cholesky
  std::string algorithm;  // HeteroPrio
  std::size_t n = 0;      // tasks
  double baseline_tasks_per_sec = 0.0;      ///< metrics == nullptr
  double instrumented_tasks_per_sec = 0.0;  ///< collector attached
  /// baseline_rate / instrumented_rate - 1; negative values (noise in the
  /// instrumented arm's favor) are reported as measured, not clamped.
  double overhead_fraction = 0.0;
};

struct PerfObsBaseline {
  Platform platform{20, 4};
  int repetitions = 0;
  double budget = 0.02;
  std::vector<PerfObsSeries> series;
};

/// Run both paired measurements, with progress lines on stderr.
/// Deterministic workloads (seeded from n).
[[nodiscard]] PerfObsBaseline run_obs_overhead(const PerfObsOptions& options);

/// Serialize to the BENCH_obs.json document (schema "hp-bench-obs/v1").
[[nodiscard]] std::string perf_obs_to_json(const PerfObsBaseline& baseline);

/// Validate an emitted BENCH_obs.json: parses, carries the v1 schema tag
/// and a positive budget, and holds a series entry with positive rates and
/// a finite overhead_fraction for both reference workloads. On failure
/// returns false and `*error` names everything missing, not just the first.
bool validate_perf_obs_json(const std::string& json_text, std::string* error);

/// Enforce the overhead budget of a (valid) BENCH_obs.json: every series'
/// overhead_fraction must be <= `budget`; budget <= 0 uses the budget
/// recorded in the document. Names each series over budget with its value.
bool check_obs_budget(const std::string& json_text, double budget,
                      std::string* error);

}  // namespace hp::perf
