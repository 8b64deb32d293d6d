// DAG performance baseline — emits BENCH_dag.json (schema
// "hp-bench-dag/v2", see docs/benchmarks.md): end-to-end
// schedule-construction throughput of the full pipeline (tiled DAG ->
// priorities -> scheduler) for HeteroPrio, HEFT and DualHP on the paper's
// Cholesky/QR/LU workloads at N in {10, 20, 40, 60} tiles, plus the
// speedups of the incremental HeteroPrio engine and the gap-indexed HEFT
// over their reference implementations at the largest N of each kernel.
//
// Usage: bench_dag_perf [--quick] [--out FILE] [--reps K]
//   --quick       N in {4, 8} only, 2 reps; finishes in seconds
//                 (this is what the `perf`-labeled CTest smoke runs)
//   --out FILE    where to write the JSON (default: BENCH_dag.json)

#include <cstdlib>
#include <iostream>
#include <string>

#include "io/serialize.hpp"
#include "perf/perf_dag.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hp;

  perf::PerfDagOptions options;
  std::string out_path = "BENCH_dag.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.tile_counts = {4, 8};
      options.repetitions = 2;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      options.repetitions = std::atoi(argv[++i]);
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  const perf::PerfDagBaseline baseline = perf::run_perf_dag(options);

  util::Table table({"kernel", "N", "tasks", "algorithm", "seconds",
                     "tasks/sec"},
                    4);
  for (const perf::PerfDagSeries& s : baseline.series) {
    table.row().cell(s.kernel).cell(s.tiles)
        .cell(static_cast<long long>(s.n)).cell(s.algorithm)
        .cell(s.seconds).cell(s.tasks_per_sec);
  }
  std::cout << "== DAG perf baseline (" << baseline.platform.cpus()
            << " CPU, " << baseline.platform.gpus() << " GPU model) ==\n";
  table.print(std::cout);
  for (const perf::PerfDagSpeedup& s : baseline.speedups) {
    std::cout << s.algorithm << " speedup vs reference on " << s.kernel
              << " N=" << s.tiles << " (" << s.n << " tasks): "
              << util::format_double(s.value, 2) << "x\n";
  }

  const std::string json = perf::perf_dag_to_json(baseline);
  std::string error;
  if (!perf::validate_perf_dag_json(json, options.kernels, options.tile_counts,
                                    &error)) {
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
