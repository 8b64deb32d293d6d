#pragma once
// Row-level comparison of two BENCH_*.json documents.
//
// `hp_sched perf-check --against OLD` answers the question the validator
// cannot: not "is this file well-formed" but "which rows got slower, by how
// much, and which disappeared". Rows are joined by their `id` and compared
// on their one throughput field, `per_sec`, so reordering the rows between
// runs is harmless and every document joins the same way.

#include <string>
#include <vector>

#include "obs/json.hpp"

namespace hp::perf {

/// One row of a BENCH document: its id and throughput.
struct SeriesPoint {
  std::string key;  ///< the row id, e.g. "HeteroPrio/n=1000"
  double per_sec = 0.0;
};

/// Every row of a parsed document with an id and a positive finite
/// `per_sec`. Other rows are skipped; the validator reports them.
[[nodiscard]] std::vector<SeriesPoint> extract_series(
    const obs::JsonValue& doc);

/// One joined row with its throughput change.
struct SeriesDelta {
  std::string key;
  double baseline = 0.0;  ///< per_sec in the old document
  double current = 0.0;   ///< per_sec in the new document
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

  /// Rows present in both documents.
  [[nodiscard]] std::size_t joined() const noexcept {
    return regressed.size() + improved.size() + unchanged.size();
  }
  /// A comparison passes when rows joined, none regressed and none went
  /// missing. An empty join compared nothing, so it does not pass.
  [[nodiscard]] bool ok() const noexcept {
    return joined() > 0 && regressed.empty() && missing.empty();
  }
};

/// Join `current` against `baseline` row by row. `tolerance` is the
/// relative throughput slack (0.25 = a row may lose up to 25% before it
/// counts as regressed — best-of wall times on shared machines need real
/// slack).
[[nodiscard]] PerfComparison compare_series(const obs::JsonValue& baseline,
                                            const obs::JsonValue& current,
                                            double tolerance);

/// Multi-line human rendering: every regression and missing row with its
/// numbers, then a one-line summary.
[[nodiscard]] std::string format_comparison(const PerfComparison& cmp);

}  // namespace hp::perf
