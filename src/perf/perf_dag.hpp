#pragma once
// DAG performance baseline: end-to-end schedule-construction throughput of
// the full pipeline (tiled linear-algebra DAG -> priorities -> scheduler)
// on the paper's Cholesky/QR/LU workloads, plus the optimized-vs-reference
// speedups of the incremental HeteroPrio engine and the gap-indexed HEFT.
// Emitted as BENCH_dag.json (schema "hp-bench-dag/v1", documented in
// docs/benchmarks.md), the DAG-side companion of BENCH_core.json.

#include <string>
#include <string_view>
#include <vector>

#include "model/platform.hpp"

namespace hp::perf {

inline constexpr std::string_view kDagSchema = "hp-bench-dag/v2";

struct PerfDagOptions {
  /// Tile counts per kernel. N = 60 Cholesky is ~38k tasks — the scale the
  /// tentpole targets end-to-end.
  std::vector<int> tile_counts = {10, 20, 40, 60};
  std::vector<std::string> kernels = {"cholesky", "qr", "lu"};
  /// Timed repetitions per (kernel, tiles, algorithm); best one reported.
  int repetitions = 3;
  Platform platform{20, 4};
  /// Also time the reference engines (heteroprio_dag_reference, heft_ref)
  /// at the largest tile count of each kernel and report the speedups.
  bool include_reference = true;
};

/// One measured point: scheduling one kernel DAG with one policy.
struct PerfDagSeries {
  std::string kernel;     // cholesky | qr | lu
  std::string algorithm;  // HeteroPrio | HEFT | DualHP | *-ref
  int tiles = 0;
  std::size_t n = 0;           ///< tasks in the DAG
  double seconds = 0.0;        ///< best-of-repetitions wall time
  double tasks_per_sec = 0.0;  ///< n / seconds
  double makespan = 0.0;       ///< simulated makespan (schedule quality)
  /// Critical-path attribution of the produced schedule
  /// (sched/critical_path.hpp): fraction of the makespan the critical chain
  /// spends executing tasks, and the chain's segment count. A falling
  /// compute fraction at equal makespan means the chain picked up waits —
  /// schedule-quality context the throughput numbers alone can't show.
  double cp_compute_fraction = 0.0;
  std::size_t cp_segments = 0;
};

/// Optimized / reference throughput at the largest tile count of a kernel.
struct PerfDagSpeedup {
  std::string kernel;
  std::string algorithm;  // HeteroPrio | HEFT
  int tiles = 0;
  std::size_t n = 0;
  double value = 0.0;
};

struct PerfDagBaseline {
  Platform platform{20, 4};
  int repetitions = 0;
  std::vector<PerfDagSeries> series;
  std::vector<PerfDagSpeedup> speedups;
};

/// Run all measurements, with progress lines on stderr. DAGs are deterministic (builder + tile count);
/// priorities use the paper's avg bottom levels; wall-clock via
/// steady_clock. The graph build is untimed — the series measure scheduling.
[[nodiscard]] PerfDagBaseline run_perf_dag(const PerfDagOptions& options);

/// Serialize to the BENCH_dag.json document (schema "hp-bench-dag/v2").
[[nodiscard]] std::string perf_dag_to_json(const PerfDagBaseline& baseline);

/// Validate an emitted BENCH_dag.json: the document must parse, carry the
/// v2 schema tag, and contain a series entry with a positive tasks_per_sec
/// and an in-range cp_compute_fraction for every (kernel, tiles in
/// `tile_counts`, algorithm in {HeteroPrio, HEFT, DualHP}) triple, in any
/// order. On failure returns false and `*error` names every missing series.
bool validate_perf_dag_json(const std::string& json_text,
                            const std::vector<std::string>& kernels,
                            const std::vector<int>& tile_counts,
                            std::string* error);

}  // namespace hp::perf
