// Service baseline — emits BENCH_serve.json (schema "hp-bench-serve/v1",
// see docs/benchmarks.md): a worker-count sweep of the multi-tenant
// scheduling service under a saturating in-process client load (sustained
// req/s, p50/p99 enqueue-to-response latency) plus a deliberately
// overloaded arm that must shed through the admission watermark with zero
// silent drops. `hp_sched perf-check --in BENCH_serve.json` re-validates
// the document's invariants.
//
// Usage: bench_serve [--quick] [--out FILE] [--reps K] [--requests N]
//   --quick       64-task requests, 24 per client, 2 reps; finishes in
//                 seconds (this is what the `perf`-labeled CTest smoke runs)
//   --out FILE    where to write the JSON (default: BENCH_serve.json)

#include <cstdlib>
#include <iostream>
#include <string>

#include "io/serialize.hpp"
#include "perf/perf_serve.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hp;

  perf::PerfServeOptions options;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.tasks_per_request = 64;
      options.requests_per_client = 24;
      options.repetitions = 2;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      options.repetitions = std::atoi(argv[++i]);
    } else if (arg == "--requests" && i + 1 < argc) {
      options.requests_per_client = std::atoi(argv[++i]);
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  const perf::PerfServeBaseline baseline = perf::run_perf_serve(options);

  util::Table table({"arm", "workers", "submitted", "completed", "rejected",
                     "req/s", "p50 ms", "p99 ms"},
                    3);
  for (const perf::PerfServeSeries& s : baseline.series) {
    table.row().cell(s.label).cell(s.workers).cell(s.submitted)
        .cell(s.completed).cell(s.rejected).cell(s.requests_per_sec)
        .cell(s.p50_latency_ms).cell(s.p99_latency_ms);
  }
  std::cout << "== Scheduling service under client load ("
            << baseline.platform.cpus() << " CPU, "
            << baseline.platform.gpus() << " GPU model, "
            << baseline.tasks_per_request << " tasks/request) ==\n";
  table.print(std::cout);

  const std::string json = perf::perf_serve_to_json(baseline);
  std::string error;
  if (!perf::validate_perf_serve_json(json, &error)) {
    std::cerr << "emitted document fails schema validation: " << error
              << '\n';
    return 1;
  }
  if (!io::save_text_file(out_path, json)) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
