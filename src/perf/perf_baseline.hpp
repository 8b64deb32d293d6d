#pragma once
// Core performance baseline: schedule-construction throughput of the main
// schedulers on large independent instances, the optimized-vs-reference
// HeteroPrio speedup, and the end-to-end wall-clock of the parallel DAG
// sweep. Emitted as BENCH_core.json (schema documented in
// docs/benchmarks.md) so the performance trajectory of the repo can be
// tracked PR over PR and compared against any prior baseline file.

#include <string>
#include <string_view>
#include <vector>

#include "model/platform.hpp"
#include "obs/counters.hpp"

namespace hp::perf {

inline constexpr std::string_view kCoreSchema = "hp-bench-core/v4";

struct PerfBaselineOptions {
  /// Independent-instance sizes to measure (tasks per instance).
  std::vector<std::size_t> sizes = {1000, 10000, 100000};
  /// Timed repetitions per (algorithm, n); the best one is reported. One
  /// additional untimed warm-up run precedes the timed ones.
  int repetitions = 5;
  Platform platform{20, 4};
  /// Also time the pre-optimization reference engine (heteroprio_reference)
  /// and report the speedup of the optimized engine at the largest n.
  bool include_reference = true;
  /// Also run a small DAG sweep end-to-end and report its wall-clock.
  bool include_sweep = true;
  int sweep_threads = 0;          ///< 1 = serial, <= 0 = all cores
  std::vector<int> sweep_tiles = {4, 8, 12, 16};
};

/// One measured point: schedule construction for `n` independent tasks.
struct PerfSeries {
  /// HeteroPrio | DualHP | HEFT | HeteroPrio-ref
  std::string algorithm;
  std::size_t n = 0;
  double seconds = 0.0;        ///< best-of-repetitions wall time
  double tasks_per_sec = 0.0;  ///< n / seconds
};

struct PerfBaseline {
  Platform platform{20, 4};
  int repetitions = 0;
  /// std::thread::hardware_concurrency() of the measuring machine, so
  /// documents from different machines are never compared blind.
  int hardware_threads = 0;
  std::vector<PerfSeries> series;
  /// Optimized / reference tasks-per-sec at the largest measured n
  /// (0 when the reference was not measured).
  std::size_t speedup_n = 0;
  double speedup_vs_reference = 0.0;
  /// End-to-end parallel sweep (negative when not run).
  double sweep_wall_seconds = -1.0;
  int sweep_rows = 0;
  int sweep_threads = 0;
  /// Scheduler counters of one instrumented (untimed) HeteroPrio run at the
  /// largest measured n — spoliation behaviour and idle fractions of the
  /// exact workload the throughput numbers describe. counters_n == 0 when
  /// no sizes were measured.
  std::size_t counters_n = 0;
  obs::SchedulerCounters counters{};
  /// Scratch-arena footprint after all measured runs: how much per-run
  /// scratch the SoA engines bump-allocated (high water) and how much the
  /// arena holds reserved across runs. Travels with the throughput numbers
  /// so memory regressions of the hot path are as visible as time ones.
  std::size_t arena_reserved_bytes = 0;
  std::size_t arena_high_water_bytes = 0;
};

/// Run all measurements, with progress lines on stderr. Deterministic
/// instances (seeded from n), wall-clock timings via steady_clock.
[[nodiscard]] PerfBaseline run_perf_baseline(const PerfBaselineOptions& options);

/// Serialize to the BENCH_core.json document (schema "hp-bench-core/v4").
[[nodiscard]] std::string perf_baseline_to_json(const PerfBaseline& baseline);

/// Validate an emitted BENCH_core.json: the document must parse, carry the
/// v4 schema tag with its layout/arena/hardware_threads fields, and contain
/// a series entry with a positive tasks_per_sec for every (algorithm in
/// {HeteroPrio, DualHP, HEFT}, n in `sizes`) pair, in any order. On failure
/// returns false and `*error` names every missing series (algorithm and n),
/// not just the first.
bool validate_perf_baseline_json(const std::string& json_text,
                                 const std::vector<std::size_t>& sizes,
                                 std::string* error);

}  // namespace hp::perf
