#include "perf/perf_dag.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "baselines/heft_ref.hpp"
#include "core/heteroprio_dag.hpp"
#include "core/heteroprio_ref.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "perf/bench_common.hpp"
#include "sched/critical_path.hpp"

namespace hp::perf {

namespace {

TaskGraph build_kernel(const std::string& kernel, int tiles) {
  if (kernel == "cholesky") return cholesky_dag(tiles);
  if (kernel == "qr") return qr_dag(tiles);
  if (kernel == "lu") return lu_dag(tiles);
  std::cerr << "perf_dag: unknown kernel '" << kernel << "'\n";
  std::abort();
}

}  // namespace

PerfDagBaseline run_perf_dag(const PerfDagOptions& options) {
  PerfDagBaseline out;
  out.platform = options.platform;
  out.repetitions = std::max(1, options.repetitions);

  const auto note = [](const std::string& line) {
    std::cerr << "[perf-dag] " << line << '\n';
  };

  for (const std::string& kernel : options.kernels) {
    const int largest =
        options.tile_counts.empty()
            ? 0
            : *std::max_element(options.tile_counts.begin(),
                                options.tile_counts.end());
    for (const int tiles : options.tile_counts) {
      TaskGraph graph = build_kernel(kernel, tiles);
      assign_priorities(graph, RankScheme::kAvg);
      const std::size_t n = graph.size();

      // Best-of-reps wall time after one untimed warm-up (first-touch page
      // faults and allocator growth are not scheduler costs). The last
      // run's schedule records quality — identical across reps, all
      // policies are deterministic — and feeds the critical-path
      // attribution, computed outside the timed loop.
      const auto measure = [&](const std::string& algo, auto&& run) {
        Schedule last = run();
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < out.repetitions; ++r) {
          const auto start = Clock::now();
          Schedule schedule = run();
          best = std::min(best, seconds_since(start));
          last = std::move(schedule);
        }
        const double rate = static_cast<double>(n) / best;
        const CriticalPathReport cp =
            build_critical_path(last, graph.tasks(), options.platform, &graph);
        out.series.push_back(PerfDagSeries{kernel, algo, tiles, n, best, rate,
                                           last.makespan(),
                                           cp.compute_fraction(),
                                           cp.segments.size()});
        note(kernel + " N=" + std::to_string(tiles) + " " + algo + ": " +
             std::to_string(rate / 1e3) + "k tasks/s");
        return rate;
      };

      const double hp_rate = measure("HeteroPrio", [&] {
        return heteroprio_dag(graph, options.platform);
      });
      const double heft_rate = measure("HEFT", [&] {
        return heft(graph, options.platform);
      });
      measure("DualHP", [&] { return dualhp_dag(graph, options.platform); });

      if (options.include_reference && tiles == largest) {
        const double hp_ref = measure("HeteroPrio-ref", [&] {
          return heteroprio_dag_reference(graph, options.platform);
        });
        const double heft_ref_rate = measure("HEFT-ref", [&] {
          return heft_ref(graph, options.platform);
        });
        out.speedups.push_back(
            PerfDagSpeedup{kernel, "HeteroPrio", tiles, n, hp_rate / hp_ref});
        out.speedups.push_back(PerfDagSpeedup{kernel, "HEFT", tiles, n,
                                              heft_rate / heft_ref_rate});
      }
    }
  }
  return out;
}

std::string perf_dag_to_json(const PerfDagBaseline& baseline) {
  std::ostringstream out = open_document({.schema = kDagSchema,
                                          .platform = baseline.platform,
                                          .repetitions = baseline.repetitions,
                                          .soa_layout = true});
  write_rows(out, "series", baseline.series,
             [](std::ostream& row, const PerfDagSeries& s) {
               row << "{\"kernel\": \"" << s.kernel << "\", "
                   << "\"algorithm\": \"" << s.algorithm << "\", "
                   << "\"tiles\": " << s.tiles << ", "
                   << "\"n\": " << s.n << ", "
                   << "\"seconds\": " << s.seconds << ", "
                   << "\"tasks_per_sec\": " << s.tasks_per_sec << ", "
                   << "\"makespan\": " << s.makespan << ", "
                   << "\"cp_compute_fraction\": " << s.cp_compute_fraction
                   << ", "
                   << "\"cp_segments\": " << s.cp_segments << "}";
             });
  if (!baseline.speedups.empty()) {
    out << ",\n";
    write_rows(out, "speedups_vs_reference", baseline.speedups,
               [](std::ostream& row, const PerfDagSpeedup& s) {
                 row << "{\"kernel\": \"" << s.kernel << "\", "
                     << "\"algorithm\": \"" << s.algorithm << "\", "
                     << "\"tiles\": " << s.tiles << ", "
                     << "\"n\": " << s.n << ", "
                     << "\"value\": " << s.value << "}";
               });
  }
  out << "\n}\n";
  return out.str();
}

bool validate_perf_dag_json(const std::string& json_text,
                            const std::vector<std::string>& kernels,
                            const std::vector<int>& tile_counts,
                            std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  obs::JsonValue doc;
  if (!parse_bench_json(json_text, kDagSchema, &doc, error)) return false;
  const obs::JsonArray* series = array_field(doc, "series");
  if (series == nullptr) return fail("missing series array");

  const auto key = [](const std::string& kernel, const std::string& algo,
                      double tiles) {
    return kernel + "/" + algo + " at N=" + format_number(tiles);
  };
  std::vector<std::string> seen;
  for (const obs::JsonValue& row : *series) {
    const std::string kernel = string_field(row, "kernel");
    const std::string algo = string_field(row, "algorithm");
    const std::optional<double> tiles = number_field(row, "tiles");
    const std::optional<double> rate = number_field(row, "tasks_per_sec");
    const std::optional<double> cp = number_field(row, "cp_compute_fraction");
    if (kernel.empty() || algo.empty() || !tiles) {
      return fail("series entry without kernel/algorithm/tiles");
    }
    if (!rate || *rate <= 0.0) {
      return fail("series entry for " + kernel + "/" + algo +
                  " has no positive tasks_per_sec");
    }
    if (!cp || *cp < 0.0 || *cp > 1.0) {
      return fail("series entry for " + kernel + "/" + algo +
                  " has no cp_compute_fraction in [0, 1]");
    }
    seen.push_back(key(kernel, algo, *tiles));
  }
  std::vector<std::string> expected;
  for (const std::string& kernel : kernels) {
    for (const int tiles : tile_counts) {
      for (const char* algo : {"HeteroPrio", "HEFT", "DualHP"}) {
        expected.push_back(key(kernel, algo, tiles));
      }
    }
  }
  const std::string missing = missing_series(expected, seen);
  return missing.empty() || fail(missing);
}

}  // namespace hp::perf
