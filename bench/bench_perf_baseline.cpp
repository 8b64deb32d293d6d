// Core performance baseline — emits BENCH_core.json (schema
// "hp-bench-core/v4", see docs/benchmarks.md): schedule-construction
// throughput (tasks/sec) for HeteroPrio, DualHP and HEFT on independent
// uniform instances at n in {1e3, 1e4, 1e5}, the speedup of the optimized
// HeteroPrio engine over the pre-optimization reference implementation, and
// the end-to-end wall-clock of the parallel DAG sweep.
//
// Usage: bench_perf_baseline [--quick] [--out FILE] [--reps K]
//                            [--threads N] [--serial-sweep]
//   --quick       n = 1000 only, 2 reps, tiny sweep; finishes in seconds
//                 (this is what the `perf`-labeled CTest smoke runs)
//   --out FILE    where to write the JSON (default: BENCH_core.json)

#include <cstdlib>
#include <iostream>
#include <string>

#include "io/serialize.hpp"
#include "perf/perf_baseline.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hp;

  perf::PerfBaselineOptions options;
  std::string out_path = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.sizes = {1000};
      options.repetitions = 2;
      options.sweep_tiles = {4, 8};
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      options.repetitions = std::atoi(argv[++i]);
    } else if (arg == "--threads" && i + 1 < argc) {
      options.sweep_threads = std::atoi(argv[++i]);
    } else if (arg == "--serial-sweep") {
      options.sweep_threads = 1;
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  const perf::PerfBaseline baseline = perf::run_perf_baseline(options);

  util::Table table({"algorithm", "n", "seconds", "tasks/sec"}, 4);
  for (const perf::PerfSeries& s : baseline.series) {
    table.row().cell(s.algorithm).cell(static_cast<long long>(s.n))
        .cell(s.seconds).cell(s.tasks_per_sec);
  }
  std::cout << "== Core perf baseline (" << baseline.platform.cpus()
            << " CPU, " << baseline.platform.gpus() << " GPU model) ==\n";
  table.print(std::cout);
  if (baseline.speedup_n != 0) {
    std::cout << "HeteroPrio speedup vs reference engine at n="
              << baseline.speedup_n << ": "
              << util::format_double(baseline.speedup_vs_reference, 2)
              << "x\n";
  }
  if (baseline.sweep_wall_seconds >= 0.0) {
    std::cout << "DAG sweep: " << baseline.sweep_rows << " rows in "
              << util::format_double(baseline.sweep_wall_seconds, 3)
              << " s on " << baseline.sweep_threads << " threads\n";
  }

  const std::string json = perf::perf_baseline_to_json(baseline);
  std::string error;
  if (!perf::validate_perf_baseline_json(json, options.sizes, &error)) {
    std::cerr << "emitted document fails schema validation: " << error << '\n';
    return 1;
  }
  if (!io::save_text_file(out_path, json)) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
