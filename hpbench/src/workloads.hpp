#pragma once
// The benchmark's workloads. Each one builds its inputs from the seed, then
// drives them through every layer in three phases:
//
//   setup    build the inputs several times; setup_s is the median;
//   engines  HeteroPrio, HEFT and DualHP on each problem, and the online
//            runtime on each problem with Poisson arrivals, deadlines,
//            admission watermarks, reschedule ticks, straggler respawn and
//            a crash/straggler/task-failure plan; all interleaved
//            round-robin over every CPU, reported by each call's fastest
//            run;
//   serve    an open loop from one generator thread at a fixed offered
//            rate into serve::Service, with a client thread receiving
//            responses.
//
// Workloads differ in what their problems look like (see README.md):
// batch-indep schedules one large independent instance, batch-dag tiled
// Cholesky/QR/LU DAGs, serve-mixed many small independent and DAG
// requests. Each workload's parameters are constants in workloads.cpp.

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"

namespace hpb {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Traced run: spans around every layer call and the engines' phase
  /// collectors attached; prints the per-layer metrics instead of the
  /// end-to-end ones.
  bool trace = false;
  /// Traced run: where the spans are written (empty = not written).
  std::string trace_path;
  /// JSON object stored with the spans.
  std::string fingerprint_json = "{}";
};

struct RunResult {
  Gate gate;
  std::vector<Metric> metrics;
};

/// Run one workload. Throws std::runtime_error on an unknown workload.
[[nodiscard]] RunResult run_workload(const RunOptions& options);

}  // namespace hpb
