// Observability overhead budget — emits BENCH_obs.json (schema
// "hp-bench-obs/v1", see docs/benchmarks.md): paired instrumented-vs-
// disabled throughput of the HeteroPrio engine on a large independent
// instance and the Cholesky DAG, with the tolerated overhead budget
// recorded in the document. `hp_sched perf-check --in BENCH_obs.json`
// enforces the budget.
//
// Usage: bench_obs_overhead [--quick] [--out FILE] [--reps K]
//                           [--budget X]
//   --quick       n = 10000, N = 10 tiles, 3 reps; finishes in seconds
//                 (this is what the `perf`-labeled CTest smoke runs)
//   --out FILE    where to write the JSON (default: BENCH_obs.json)
//   --budget X    overhead budget recorded in the document (default 0.02)

#include <cstdlib>
#include <iostream>
#include <string>

#include "io/serialize.hpp"
#include "perf/perf_obs.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hp;

  perf::PerfObsOptions options;
  bool quick = false;
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
      options.independent_n = 10000;
      options.cholesky_tiles = 10;
      options.repetitions = 3;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      options.repetitions = std::atoi(argv[++i]);
    } else if (arg == "--budget" && i + 1 < argc) {
      options.budget = std::atof(argv[++i]);
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  const perf::PerfObsBaseline baseline = perf::run_obs_overhead(options);

  util::Table table(
      {"workload", "n", "baseline t/s", "instrumented t/s", "overhead %"}, 3);
  for (const perf::PerfObsSeries& s : baseline.series) {
    table.row().cell(s.workload).cell(static_cast<long long>(s.n))
        .cell(s.baseline_tasks_per_sec).cell(s.instrumented_tasks_per_sec)
        .cell(s.overhead_fraction * 100.0);
  }
  std::cout << "== Observability overhead (" << baseline.platform.cpus()
            << " CPU, " << baseline.platform.gpus() << " GPU model) ==\n";
  table.print(std::cout);

  const std::string json = perf::perf_obs_to_json(baseline);
  std::string error;
  if (!perf::validate_perf_obs_json(json, &error)) {
    std::cerr << "emitted document fails schema validation: " << error << '\n';
    return 1;
  }
  if (!io::save_text_file(out_path, json)) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  std::cout << "wrote " << out_path << '\n';

  // The quick smoke runs on loaded CI machines where a 2% gate would be all
  // noise; it validates the schema and the pairing machinery but leaves
  // budget enforcement to the full run and `hp_sched perf-check`.
  if (!quick && !perf::check_obs_budget(json, 0.0, &error)) {
    std::cerr << "budget check failed: " << error << '\n';
    return 1;
  }
  return 0;
}
