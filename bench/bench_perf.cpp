// Emits one of the five BENCH_*.json documents (see docs/benchmarks.md):
//   core    schedule construction on independent instances, the reference
//           engine speedup and the DAG sweep's wall clock
//   dag     the tiled Cholesky/QR/LU pipeline per scheduler
//   obs     HeteroPrio with and without a metrics collector
//   online  the rolling-horizon runtime under an arrival-rate sweep
//   serve   the scheduling service under a worker-count sweep
// Each row is logged on stderr as it is measured. The document is validated
// against its schema's predicate table before it is written, and
// `hp_sched perf-check --in FILE` re-reads it the same way.
//
// Usage: bench_perf <core|dag|obs|online|serve> [--quick] [--out FILE]
//                   [--reps K]
//   --quick       the small preset; finishes in seconds (the `perf`-labeled
//                 CTest smokes run it)
//   --out FILE    where to write the JSON (default: BENCH_<document>.json)
//   --reps K      timed repetitions per measurement (default: the preset's)

#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>

#include "io/serialize.hpp"
#include "perf/bench_common.hpp"

int main(int argc, char** argv) {
  using namespace hp;

  const std::optional<perf::BenchDoc> doc =
      argc > 1 ? perf::doc_from_name(argv[1]) : std::nullopt;
  if (!doc) {
    std::cerr << "usage: bench_perf <core|dag|obs|online|serve> [--quick] "
                 "[--out FILE] [--reps K]\n";
    return 2;
  }
  bool quick = false;
  std::string out_path = "BENCH_" + std::string(perf::doc_name(*doc)) + ".json";
  int reps = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else {
      std::cerr << "unknown argument '" << arg << "'\n";
      return 2;
    }
  }

  perf::BenchOptions options = perf::bench_options(*doc, quick);
  if (reps > 0) options.repetitions = reps;
  const perf::BenchDocument document = perf::run_bench(*doc, options);

  const std::string json = perf::bench_to_json(document);
  std::string error;
  if (!perf::validate_bench_json(json, quick, &error)) {
    std::cerr << "emitted document fails validation: " << error << '\n';
    return 1;
  }
  if (!io::save_text_file(out_path, json)) {
    std::cerr << "cannot write " << out_path << '\n';
    return 1;
  }
  std::cout << "wrote " << out_path << '\n';
  return 0;
}
