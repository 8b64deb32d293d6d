// Online-runtime baseline — emits BENCH_online.json (schema
// "hp-bench-online/v1", see docs/benchmarks.md): an arrival-rate sweep of
// the rolling-horizon runtime (makespan stretch over the batch engine,
// deadline-miss rate, shed fraction, re-plan throughput) plus a
// deliberately saturating arm that must finish in degraded operation with
// zero silent drops. `hp_sched perf-check --in BENCH_online.json`
// re-validates the document's invariants.
//
// Usage: bench_online [--quick] [--out FILE] [--reps K] [--n TASKS]
//   --quick       n = 5000, 2 reps; finishes in seconds (this is what the
//                 `perf`-labeled CTest smoke runs)
//   --out FILE    where to write the JSON (default: BENCH_online.json)

#include <cstdlib>
#include <iostream>
#include <string>

#include "io/serialize.hpp"
#include "perf/perf_online.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace hp;

  perf::PerfOnlineOptions options;
  std::string out_path = "BENCH_online.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      options.independent_n = 5000;
      options.repetitions = 2;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      options.repetitions = std::atoi(argv[++i]);
    } else if (arg == "--n" && i + 1 < argc) {
      options.independent_n =
          static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  const perf::PerfOnlineBaseline baseline = perf::run_perf_online(options);

  util::Table table({"arm", "rate", "stretch", "miss rate", "shed",
                     "tasks/s", "final mode"},
                    3);
  for (const perf::PerfOnlineSeries& s : baseline.series) {
    table.row().cell(s.label).cell(s.rate).cell(s.makespan_stretch)
        .cell(s.deadline_miss_rate).cell(s.shed_fraction)
        .cell(s.replan_tasks_per_sec).cell(s.final_mode);
  }
  std::cout << "== Online runtime under arrival pressure ("
            << baseline.platform.cpus() << " CPU, "
            << baseline.platform.gpus() << " GPU model) ==\n";
  table.print(std::cout);

  const std::string json = perf::perf_online_to_json(baseline);
  std::string error;
  if (!perf::validate_perf_online_json(json, &error)) {
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
