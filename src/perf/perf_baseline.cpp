#include "perf/perf_baseline.hpp"

#include <algorithm>
#include <iostream>
#include <limits>
#include <optional>
#include <thread>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_ref.hpp"
#include "obs/recorder.hpp"
#include "perf/bench_common.hpp"
#include "sweep/dag_sweep.hpp"
#include "util/arena.hpp"
#include "util/thread_pool.hpp"

namespace hp::perf {

namespace {

/// Best-of-`reps` wall time of one schedule construction. One untimed
/// warm-up run precedes the timed repetitions: the first run through a
/// fresh instance pays first-touch page faults, allocator growth, and CPU
/// frequency ramp-up, none of which are properties of the scheduler being
/// measured by a best-of estimator.
template <typename Fn>
double time_best(int reps, Fn&& fn) {
  fn();
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    fn();
    best = std::min(best, seconds_since(start));
  }
  return best;
}

}  // namespace

PerfBaseline run_perf_baseline(const PerfBaselineOptions& options) {
  PerfBaseline out;
  out.platform = options.platform;
  // At least one repetition, or every series would report an infinite
  // best-of-zero time (and `inf` is not valid JSON).
  out.repetitions = std::max(1, options.repetitions);
  out.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());

  const auto note = [](const std::string& line) {
    std::cerr << "[perf] " << line << '\n';
  };

  double hp_best_rate = 0.0;
  double ref_best_rate = 0.0;
  std::size_t largest_n = 0;
  for (const std::size_t n : options.sizes) {
    const Instance inst = make_instance(n);
    const auto tasks = inst.tasks();
    const auto measure = [&](const std::string& algo, auto&& run) {
      const double secs = time_best(out.repetitions, run);
      const double rate = static_cast<double>(n) / secs;
      out.series.push_back(PerfSeries{algo, n, secs, rate});
      note(algo + " n=" + std::to_string(n) + ": " +
           std::to_string(rate / 1e6) + "M tasks/s");
      return rate;
    };

    const double hp_rate = measure("HeteroPrio", [&] {
      (void)heteroprio(tasks, options.platform);
    });
    measure("DualHP", [&] { (void)dualhp(tasks, options.platform); });
    measure("HEFT", [&] { (void)heft_independent(tasks, options.platform); });
    if (n >= largest_n) {
      largest_n = n;
      hp_best_rate = hp_rate;
    }
    if (options.include_reference) {
      const double ref_rate = measure("HeteroPrio-ref", [&] {
        (void)heteroprio_reference(tasks, options.platform);
      });
      if (n == largest_n) ref_best_rate = ref_rate;
    }
  }
  if (options.include_reference && ref_best_rate > 0.0) {
    out.speedup_n = largest_n;
    out.speedup_vs_reference = hp_best_rate / ref_best_rate;
  }

  if (largest_n != 0) {
    // One untimed instrumented run: the counters travel with the throughput
    // numbers they describe, without perturbing the timed loops above.
    const Instance inst = make_instance(largest_n);
    obs::EventRecorder recorder;
    HeteroPrioOptions hp_options;
    hp_options.sink = &recorder;
    (void)heteroprio(inst.tasks(), options.platform, hp_options);
    out.counters_n = largest_n;
    out.counters = obs::counters_from_events(recorder.events(),
                                             options.platform);
    note("counters n=" + std::to_string(largest_n) + ": " +
         std::to_string(out.counters.spoliation_commits) + " spoliations, " +
         std::to_string(out.counters.peak_ready_depth) + " peak ready depth");
  }

  // Arena footprint of everything measured above: the timed runs all draw
  // their scratch from this thread's arena, so its high water is the per-run
  // scratch peak of the hot path at the largest n.
  out.arena_reserved_bytes = util::scratch_arena().reserved_bytes();
  out.arena_high_water_bytes = util::scratch_arena().high_water_bytes();

  if (options.include_sweep) {
    bench::SweepOptions sweep;
    sweep.platform = options.platform;
    sweep.tile_counts = options.sweep_tiles;
    sweep.threads = options.sweep_threads;
    sweep.verbose = false;
    const auto start = Clock::now();
    const std::vector<bench::SweepRow> rows = bench::run_dag_sweep(sweep);
    out.sweep_wall_seconds = seconds_since(start);
    out.sweep_rows = static_cast<int>(rows.size());
    out.sweep_threads = static_cast<int>(util::resolve_threads(sweep.threads));
    note("sweep: " + std::to_string(out.sweep_rows) + " rows in " +
         std::to_string(out.sweep_wall_seconds) + "s on " +
         std::to_string(out.sweep_threads) + " threads");
  }
  return out;
}

std::string perf_baseline_to_json(const PerfBaseline& baseline) {
  std::ostringstream out = open_document({.schema = kCoreSchema,
                                          .platform = baseline.platform,
                                          .repetitions = baseline.repetitions,
                                          .soa_layout = true,
                                          .hardware_threads =
                                              baseline.hardware_threads});
  out << "  \"warmup_runs\": 1,\n"
      << "  \"arena\": {\"reserved_bytes\": " << baseline.arena_reserved_bytes
      << ", \"high_water_bytes\": " << baseline.arena_high_water_bytes
      << "},\n";
  write_rows(out, "series", baseline.series,
             [](std::ostream& row, const PerfSeries& s) {
               row << "{\"algorithm\": \"" << s.algorithm << "\", "
                   << "\"workload\": \"independent-uniform\", "
                   << "\"n\": " << s.n << ", "
                   << "\"seconds\": " << s.seconds << ", "
                   << "\"tasks_per_sec\": " << s.tasks_per_sec << "}";
             });
  if (baseline.speedup_n != 0) {
    out << ",\n  \"speedup_vs_reference\": {\"n\": " << baseline.speedup_n
        << ", \"value\": " << baseline.speedup_vs_reference << "}";
  }
  if (baseline.sweep_wall_seconds >= 0.0) {
    out << ",\n  \"sweep\": {\"rows\": " << baseline.sweep_rows
        << ", \"threads\": " << baseline.sweep_threads
        << ", \"wall_seconds\": " << baseline.sweep_wall_seconds << "}";
  }
  if (baseline.counters_n != 0) {
    const obs::SchedulerCounters& c = baseline.counters;
    out << ",\n  \"counters\": {\"n\": " << baseline.counters_n
        << ", \"tasks_completed\": " << c.tasks_completed
        << ", \"spoliation_attempts\": " << c.spoliation_attempts
        << ", \"spoliation_commits\": " << c.spoliation_commits
        << ", \"spoliation_skips\": " << c.spoliation_skips
        << ", \"aborts\": " << c.aborts
        << ", \"peak_ready_depth\": " << c.peak_ready_depth
        << ", \"cpu_idle_fraction\": " << c.idle_fraction[0]
        << ", \"gpu_idle_fraction\": " << c.idle_fraction[1] << "}";
  }
  out << "\n}\n";
  return out.str();
}

bool validate_perf_baseline_json(const std::string& json_text,
                                 const std::vector<std::size_t>& sizes,
                                 std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  obs::JsonValue doc;
  if (!parse_bench_json(json_text, kCoreSchema, &doc, error)) return false;
  if (string_field(doc, "layout") != "soa") {
    return fail("missing layout tag (v2 documents record the engine layout)");
  }
  const obs::JsonValue* arena = doc.find("arena");
  if (arena == nullptr || !number_field(*arena, "high_water_bytes")) {
    return fail("missing arena footprint (v2 field arena.high_water_bytes)");
  }
  if (!number_field(doc, "hardware_threads")) {
    return fail("missing hardware_threads (v3 documents record the "
                "measuring machine's concurrency)");
  }
  const obs::JsonArray* series = array_field(doc, "series");
  if (series == nullptr) return fail("missing series array");

  const auto key = [](const std::string& algo, double n) {
    return algo + " at n=" + format_number(n);
  };
  std::vector<std::string> seen;
  for (const obs::JsonValue& row : *series) {
    const std::string algo = string_field(row, "algorithm");
    const std::optional<double> n = number_field(row, "n");
    const std::optional<double> rate = number_field(row, "tasks_per_sec");
    if (algo.empty() || !n) return fail("series entry without algorithm/n");
    if (!rate || *rate <= 0.0) {
      return fail("series entry for " + algo +
                  " has no positive tasks_per_sec");
    }
    seen.push_back(key(algo, *n));
  }
  std::vector<std::string> expected;
  for (const char* algo : {"HeteroPrio", "DualHP", "HEFT"}) {
    for (const std::size_t n : sizes) {
      expected.push_back(key(algo, static_cast<double>(n)));
    }
  }
  const std::string missing = missing_series(expected, seen);
  return missing.empty() || fail(missing);
}

}  // namespace hp::perf
