// Golden text of the five BENCH document emitters (perf_*_to_json): each
// serializes a hand-built result struct and must reproduce, byte for byte,
// the text recorded before the emitters were refactored. The committed
// BENCH_*.json artifacts are compared across versions, so any change to the
// emitted bytes is a schema change and must show up here first.

#include <gtest/gtest.h>

#include <string>

#include "perf/perf_baseline.hpp"
#include "perf/perf_dag.hpp"
#include "perf/perf_obs.hpp"
#include "perf/perf_online.hpp"
#include "perf/perf_serve.hpp"

namespace hp::perf {
namespace {

PerfBaseline core_full() {
  PerfBaseline b;
  b.platform = Platform(20, 4);
  b.repetitions = 5;
  b.hardware_threads = 8;
  b.series = {{"HeteroPrio", 1000, 0.000123456789012, 8100000.123456789},
              {"DualHP", 1000, 0.0421, 23752.96912114014},
              {"HeteroPrio-ref", 100000, 1.5, 66666.66666666667}};
  b.speedup_n = 100000;
  b.speedup_vs_reference = 2.718281828459045;
  b.sweep_wall_seconds = 0.25;
  b.sweep_rows = 48;
  b.sweep_threads = 4;
  b.counters_n = 100000;
  b.counters.tasks_completed = 100000;
  b.counters.spoliation_attempts = 37;
  b.counters.spoliation_commits = 12;
  b.counters.spoliation_skips = 1234567;
  b.counters.aborts = 12;
  b.counters.peak_ready_depth = 99999;
  b.counters.idle_fraction[0] = 0.001953125;
  b.counters.idle_fraction[1] = 1.0 / 3.0;
  b.arena_reserved_bytes = 4194304;
  b.arena_high_water_bytes = 3407872;
  return b;
}

TEST(PerfEmit, CoreDocumentWithEveryOptionalBlock) {
  EXPECT_EQ(perf_baseline_to_json(core_full()),
            R"({
  "schema": "hp-bench-core/v4",
  "layout": "soa",
  "platform": {"cpus": 20, "gpus": 4},
  "hardware_threads": 8,
  "repetitions": 5,
  "warmup_runs": 1,
  "arena": {"reserved_bytes": 4194304, "high_water_bytes": 3407872},
  "series": [
    {"algorithm": "HeteroPrio", "workload": "independent-uniform", "n": 1000, "seconds": 0.000123456789, "tasks_per_sec": 8100000.123},
    {"algorithm": "DualHP", "workload": "independent-uniform", "n": 1000, "seconds": 0.0421, "tasks_per_sec": 23752.96912},
    {"algorithm": "HeteroPrio-ref", "workload": "independent-uniform", "n": 100000, "seconds": 1.5, "tasks_per_sec": 66666.66667}
  ],
  "speedup_vs_reference": {"n": 100000, "value": 2.718281828},
  "sweep": {"rows": 48, "threads": 4, "wall_seconds": 0.25},
  "counters": {"n": 100000, "tasks_completed": 100000, "spoliation_attempts": 37, "spoliation_commits": 12, "spoliation_skips": 1234567, "aborts": 12, "peak_ready_depth": 99999, "cpu_idle_fraction": 0.001953125, "gpu_idle_fraction": 0.3333333333}
}
)");
}

TEST(PerfEmit, CoreDocumentWithoutOptionalBlocks) {
  PerfBaseline b;
  b.platform = Platform(3, 1);
  b.repetitions = 1;
  EXPECT_EQ(perf_baseline_to_json(b),
            R"({
  "schema": "hp-bench-core/v4",
  "layout": "soa",
  "platform": {"cpus": 3, "gpus": 1},
  "hardware_threads": 0,
  "repetitions": 1,
  "warmup_runs": 1,
  "arena": {"reserved_bytes": 0, "high_water_bytes": 0},
  "series": [
  ]
}
)");
}

TEST(PerfEmit, DagDocument) {
  PerfDagBaseline b;
  b.platform = Platform(20, 4);
  b.repetitions = 3;
  b.series = {{"cholesky", "HeteroPrio", 10, 220, 0.000456, 482456.1403508772,
               1234.5678901234, 0.8512345678901, 41},
              {"qr", "DualHP", 8, 204, 0.0125, 16320.0, 999.0, 1.0, 7}};
  b.speedups = {{"cholesky", "HeteroPrio", 10, 220, 3.14159265358979},
                {"cholesky", "HEFT", 10, 220, 41.0}};
  EXPECT_EQ(perf_dag_to_json(b),
            R"({
  "schema": "hp-bench-dag/v2",
  "layout": "soa",
  "platform": {"cpus": 20, "gpus": 4},
  "repetitions": 3,
  "series": [
    {"kernel": "cholesky", "algorithm": "HeteroPrio", "tiles": 10, "n": 220, "seconds": 0.000456, "tasks_per_sec": 482456.1404, "makespan": 1234.56789, "cp_compute_fraction": 0.8512345679, "cp_segments": 41},
    {"kernel": "qr", "algorithm": "DualHP", "tiles": 8, "n": 204, "seconds": 0.0125, "tasks_per_sec": 16320, "makespan": 999, "cp_compute_fraction": 1, "cp_segments": 7}
  ],
  "speedups_vs_reference": [
    {"kernel": "cholesky", "algorithm": "HeteroPrio", "tiles": 10, "n": 220, "value": 3.141592654},
    {"kernel": "cholesky", "algorithm": "HEFT", "tiles": 10, "n": 220, "value": 41}
  ]
}
)");

  // Without speedups the array is left out entirely.
  b.speedups.clear();
  b.series.resize(1);
  EXPECT_EQ(perf_dag_to_json(b),
            R"({
  "schema": "hp-bench-dag/v2",
  "layout": "soa",
  "platform": {"cpus": 20, "gpus": 4},
  "repetitions": 3,
  "series": [
    {"kernel": "cholesky", "algorithm": "HeteroPrio", "tiles": 10, "n": 220, "seconds": 0.000456, "tasks_per_sec": 482456.1404, "makespan": 1234.56789, "cp_compute_fraction": 0.8512345679, "cp_segments": 41}
  ]
}
)");
}

TEST(PerfEmit, ObsDocument) {
  PerfObsBaseline b;
  b.platform = Platform(20, 4);
  b.repetitions = 7;
  b.budget = 0.02;
  b.series = {{"independent-uniform", "HeteroPrio", 100000, 12345678.9,
               12100000.5, 0.0203044628},
              {"cholesky", "HeteroPrio", 11480, 5000000.0, 5010000.0,
               -0.001996007984031936}};
  EXPECT_EQ(perf_obs_to_json(b),
            R"({
  "schema": "hp-bench-obs/v1",
  "platform": {"cpus": 20, "gpus": 4},
  "repetitions": 7,
  "warmup_runs": 1,
  "budget": 0.02,
  "series": [
    {"workload": "independent-uniform", "algorithm": "HeteroPrio", "n": 100000, "baseline_tasks_per_sec": 12345678.9, "instrumented_tasks_per_sec": 12100000.5, "overhead_fraction": 0.0203044628},
    {"workload": "cholesky", "algorithm": "HeteroPrio", "n": 11480, "baseline_tasks_per_sec": 5000000, "instrumented_tasks_per_sec": 5010000, "overhead_fraction": -0.001996007984}
  ]
}
)");
}

TEST(PerfEmit, OnlineDocument) {
  PerfOnlineBaseline b;
  b.platform = Platform(20, 4);
  b.repetitions = 5;
  b.series = {{"rate-0x", "independent-uniform", 50000, 0.0, 1.0, 0.0, 0.0,
               2345678.901234, 3, "degraded", true},
              {"saturating", "independent-uniform", 50000, 1234.5678901234,
               1.75, 0.125, 0.3333333333333333, 99999.5, 12345, "shedding",
               false}};
  EXPECT_EQ(perf_online_to_json(b),
            R"({
  "schema": "hp-bench-online/v1",
  "platform": {"cpus": 20, "gpus": 4},
  "repetitions": 5,
  "warmup_runs": 1,
  "series": [
    {"label": "rate-0x", "workload": "independent-uniform", "n": 50000, "rate": 0, "makespan_stretch": 1, "deadline_miss_rate": 0, "shed_fraction": 0, "replan_tasks_per_sec": 2345678.901, "replans": 3, "final_mode": "degraded", "zero_drop": true},
    {"label": "saturating", "workload": "independent-uniform", "n": 50000, "rate": 1234.56789, "makespan_stretch": 1.75, "deadline_miss_rate": 0.125, "shed_fraction": 0.3333333333, "replan_tasks_per_sec": 99999.5, "replans": 12345, "final_mode": "shedding", "zero_drop": false}
  ]
}
)");
}

TEST(PerfEmit, ServeDocument) {
  PerfServeBaseline b;
  b.platform = Platform(8, 2);
  b.repetitions = 3;
  b.tasks_per_request = 256;
  b.series = {{"workers-1", 1, 4, 256, 256, 0, 0, 14123.456789012, 0.25,
               1.0000000001, true},
              {"saturating", 2, 4, 256, 200, 56, 3, 9876.5, 0.0625,
               12.5, false}};
  EXPECT_EQ(perf_serve_to_json(b),
            R"({
  "schema": "hp-bench-serve/v1",
  "platform": {"cpus": 8, "gpus": 2},
  "repetitions": 3,
  "tasks_per_request": 256,
  "series": [
    {"label": "workers-1", "workers": 1, "clients": 4, "submitted": 256, "completed": 256, "rejected": 0, "deferred": 0, "requests_per_sec": 14123.45679, "p50_latency_ms": 0.25, "p99_latency_ms": 1, "zero_drop": true},
    {"label": "saturating", "workers": 2, "clients": 4, "submitted": 256, "completed": 200, "rejected": 56, "deferred": 3, "requests_per_sec": 9876.5, "p50_latency_ms": 0.0625, "p99_latency_ms": 12.5, "zero_drop": false}
  ]
}
)");
}

}  // namespace
}  // namespace hp::perf
