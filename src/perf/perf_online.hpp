#pragma once
// Online-runtime baseline: an arrival-rate sweep of the rolling-horizon
// runtime over the reference independent workload, plus one deliberately
// saturating arm that must survive in degraded mode. Per arm the document
// records the makespan stretch over the batch engine, the deadline-miss
// rate, the shed fraction, and the re-plan throughput (tasks scheduled per
// second of wall clock). Emitted as BENCH_online.json (schema
// "hp-bench-online/v1", documented in docs/benchmarks.md); `hp_sched
// perf-check` dispatches on the schema tag and enforces the structural
// invariants — every series accounts for every task (zero silent drops)
// and the saturating arm ends the run outside healthy mode.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "model/platform.hpp"

namespace hp::perf {

inline constexpr std::string_view kOnlineSchema = "hp-bench-online/v1";

struct PerfOnlineOptions {
  /// Independent-instance size (tasks).
  std::size_t independent_n = 50000;
  /// Timed repetitions per arm; the best one is reported.
  int repetitions = 5;
  Platform platform{20, 4};
  /// Arrival-rate multipliers of the platform's service rate
  /// (workers / mean best duration). 0 is the batch-equivalent stream.
  std::vector<double> rate_factors = {0.0, 0.5, 1.0, 2.0, 4.0};
  /// Relative-deadline factor of the generated streams (x min(p, q)).
  double deadline_factor = 4.0;
};

/// One arm of the sweep.
struct PerfOnlineSeries {
  std::string label;          ///< "rate-2x" / "saturating"
  std::string workload;       ///< independent-uniform
  std::size_t n = 0;          ///< tasks
  double rate = 0.0;          ///< arrivals per time unit (0 = all at t=0)
  double makespan_stretch = 0.0;   ///< online makespan / batch makespan
  double deadline_miss_rate = 0.0; ///< misses / n
  double shed_fraction = 0.0;      ///< rejected / n
  double replan_tasks_per_sec = 0.0;  ///< n / best wall-clock seconds
  std::size_t replans = 0;    ///< incremental re-prioritization batches
  std::string final_mode;     ///< healthy | degraded | shedding
  bool zero_drop = false;     ///< placed + rejected + unfinished == n
};

struct PerfOnlineBaseline {
  Platform platform{20, 4};
  int repetitions = 0;
  std::vector<PerfOnlineSeries> series;
};

/// Run the sweep and the saturating arm, with progress lines on stderr.
/// Deterministic (seeded from n).
[[nodiscard]] PerfOnlineBaseline run_perf_online(
    const PerfOnlineOptions& options);

/// Serialize to the BENCH_online.json document (schema "hp-bench-online/v1").
[[nodiscard]] std::string perf_online_to_json(
    const PerfOnlineBaseline& baseline);

/// Validate an emitted BENCH_online.json: parses, carries the v1 schema
/// tag, holds a series for every expected label with sane metrics (finite
/// positive stretch and replan rate, miss/shed fractions in [0, 1]),
/// zero_drop true everywhere, and a saturating series that ends outside
/// healthy mode. On failure `*error` names everything wrong, not just the
/// first problem.
bool validate_perf_online_json(const std::string& json_text,
                               std::string* error);

}  // namespace hp::perf
