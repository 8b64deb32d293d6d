#pragma once
// Series-level comparison of two BENCH_*.json documents.
//
// `hp_sched perf-check --against OLD` answers the question the bare
// validator cannot: not "is this file well-formed" but "which series got
// slower, by how much, and which disappeared". Series are joined by
// identity (algorithm + n for the core document, kernel + algorithm + tiles
// for the DAG one, workload + arm + n for the observability-overhead one),
// so reordering the arrays between runs is harmless.

#include <string>
#include <vector>

namespace hp::perf {

/// One measured series of either BENCH document, keyed by its identity.
struct SeriesPoint {
  std::string key;  ///< "HeteroPrio n=100000" or "cholesky/HEFT N=40"
  double tasks_per_sec = 0.0;
};

/// Pull every series entry out of a BENCH_core, BENCH_dag or BENCH_obs
/// document (the entry shape picks the key format). Entries without an
/// identity or a positive finite throughput are skipped — the validator
/// reports those — and text that is not strict JSON yields no series.
[[nodiscard]] std::vector<SeriesPoint> extract_series(
    const std::string& json_text);

/// One joined series with its throughput change.
struct SeriesDelta {
  std::string key;
  double baseline = 0.0;  ///< tasks/sec in the old document
  double current = 0.0;   ///< tasks/sec in the new document
  /// current / baseline: 1.0 unchanged, 0.5 half as fast.
  [[nodiscard]] double ratio() const noexcept {
    return baseline > 0.0 ? current / baseline : 0.0;
  }
};

struct PerfComparison {
  std::vector<SeriesDelta> regressed;  ///< ratio < 1 - tolerance
  std::vector<SeriesDelta> improved;   ///< ratio > 1 + tolerance
  std::vector<SeriesDelta> unchanged;  ///< within tolerance
  std::vector<std::string> missing;    ///< in baseline only — went away
  std::vector<std::string> added;      ///< in current only — new coverage

  /// A comparison passes when nothing regressed and nothing went missing.
  [[nodiscard]] bool ok() const noexcept {
    return regressed.empty() && missing.empty();
  }
};

/// Join `current_json` against `baseline_json` series-by-series.
/// `tolerance` is the relative throughput slack (0.25 = a series may lose
/// up to 25% before it counts as regressed — best-of wall times on shared
/// machines need real slack).
[[nodiscard]] PerfComparison compare_series(const std::string& baseline_json,
                                            const std::string& current_json,
                                            double tolerance);

/// Multi-line human rendering: every regression and missing series with its
/// numbers, then a one-line summary.
[[nodiscard]] std::string format_comparison(const PerfComparison& cmp);

}  // namespace hp::perf
