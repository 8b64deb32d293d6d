#pragma once
// Service baseline: a worker-count sweep of the multi-tenant scheduling
// service under a saturating in-process client load, plus one deliberately
// overloaded arm that must shed through the admission watermark. Per arm
// the document records the sustained request throughput and the p50/p99
// enqueue-to-response latency from the merged per-tenant histograms.
// Emitted as BENCH_serve.json (schema "hp-bench-serve/v1", documented in
// docs/benchmarks.md); `hp_sched perf-check` dispatches on the schema tag
// and enforces the structural invariants — every series accounts for every
// request (zero silent drops), latency quantiles are ordered, and the
// saturating arm actually rejected work.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "model/platform.hpp"

namespace hp::perf {

inline constexpr std::string_view kServeSchema = "hp-bench-serve/v1";

struct PerfServeOptions {
  /// Tasks per scheduling request (independent uniform workload).
  std::size_t tasks_per_request = 256;
  int clients = 4;              ///< concurrent client threads per arm
  int requests_per_client = 64; ///< requests each client submits
  /// Timed repetitions per arm; the best-throughput one is reported.
  int repetitions = 3;
  /// Platform every request schedules onto.
  Platform platform{8, 2};
  /// Service worker counts swept ("workers-1", "workers-2", ...).
  std::vector<int> worker_counts = {1, 2, 4};
};

/// One arm of the sweep.
struct PerfServeSeries {
  std::string label;        ///< "workers-2" / "saturating"
  int workers = 0;          ///< service worker pool size
  int clients = 0;          ///< client threads
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deferred = 0;
  double requests_per_sec = 0.0;    ///< completed / best wall-clock seconds
  double p50_latency_ms = 0.0;      ///< enqueue-to-response, merged tenants
  double p99_latency_ms = 0.0;
  bool zero_drop = false;  ///< accounting balanced in every repetition
};

struct PerfServeBaseline {
  Platform platform{8, 2};
  int repetitions = 0;
  std::size_t tasks_per_request = 0;
  std::vector<PerfServeSeries> series;
};

/// Run the sweep and the saturating arm, with progress lines on stderr.
/// Deterministic workloads (seeded from the (client, request) cell);
/// wall-clock figures vary with the host.
[[nodiscard]] PerfServeBaseline run_perf_serve(const PerfServeOptions& options);

/// Serialize to the BENCH_serve.json document (schema "hp-bench-serve/v1").
[[nodiscard]] std::string perf_serve_to_json(const PerfServeBaseline& baseline);

/// Validate an emitted BENCH_serve.json: parses, carries the v1 schema tag,
/// holds a series for every expected label with sane metrics (positive
/// throughput, finite ordered latency quantiles, submitted/completed/
/// rejected counts with completed + rejected == submitted), zero_drop true
/// everywhere, and a saturating series that rejected at least one request.
/// On failure `*error` names everything wrong, not just the first problem.
bool validate_perf_serve_json(const std::string& json_text,
                              std::string* error);

}  // namespace hp::perf
