#include "perf/perf_baseline.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_ref.hpp"
#include "model/generators.hpp"
#include "obs/recorder.hpp"
#include "perf/json_scan.hpp"
#include "sweep/dag_sweep.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hp::perf {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

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

Instance make_instance(std::size_t n) {
  util::Rng rng(util::seed_from_cell({static_cast<std::uint64_t>(n)}));
  UniformGenParams params;
  params.num_tasks = n;
  return uniform_instance(params, rng);
}

void append_json_series(std::ostringstream& out, const PerfSeries& s,
                        bool first) {
  if (!first) out << ",";
  out << "\n    {\"algorithm\": \"" << s.algorithm << "\", "
      << "\"workload\": \"independent-uniform\", "
      << "\"n\": " << s.n << ", "
      << "\"seconds\": " << s.seconds << ", "
      << "\"tasks_per_sec\": " << s.tasks_per_sec << "}";
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

  const auto note = [&](const std::string& line) {
    if (options.verbose) std::cerr << "[perf] " << line << '\n';
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
  std::ostringstream out;
  out.precision(10);
  out << "{\n"
      << "  \"schema\": \"hp-bench-core/v4\",\n"
      << "  \"layout\": \"soa\",\n"
      << "  \"platform\": {\"cpus\": " << baseline.platform.cpus()
      << ", \"gpus\": " << baseline.platform.gpus() << "},\n"
      << "  \"hardware_threads\": " << baseline.hardware_threads << ",\n"
      << "  \"repetitions\": " << baseline.repetitions << ",\n"
      << "  \"warmup_runs\": 1,\n"
      << "  \"arena\": {\"reserved_bytes\": " << baseline.arena_reserved_bytes
      << ", \"high_water_bytes\": " << baseline.arena_high_water_bytes
      << "},\n"
      << "  \"series\": [";
  for (std::size_t i = 0; i < baseline.series.size(); ++i) {
    append_json_series(out, baseline.series[i], i == 0);
  }
  out << "\n  ]";
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

bool write_perf_baseline_json(const PerfBaseline& baseline,
                              const std::string& path) {
  std::ofstream file(path);
  if (!file) return false;
  file << perf_baseline_to_json(baseline);
  return static_cast<bool>(file);
}

bool validate_perf_baseline_json(const std::string& json_text,
                                 const std::vector<std::size_t>& sizes,
                                 std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!jsonscan::balanced_json(json_text, error)) return false;
  if (jsonscan::string_field(json_text, "schema").value_or("") !=
      "hp-bench-core/v4") {
    return fail("missing or wrong schema tag (want hp-bench-core/v4)");
  }
  if (jsonscan::string_field(json_text, "layout").value_or("") != "soa") {
    return fail("missing layout tag (v2 documents record the engine layout)");
  }
  if (!jsonscan::number_field(json_text, "high_water_bytes").has_value()) {
    return fail("missing arena footprint (v2 field arena.high_water_bytes)");
  }
  if (!jsonscan::number_field(json_text, "hardware_threads").has_value()) {
    return fail("missing hardware_threads (v3 documents record the "
                "measuring machine's concurrency)");
  }

  // Tick off expected entries in whatever order the series array holds them.
  struct Expected {
    std::string algorithm;
    std::size_t n;
    bool seen = false;
  };
  std::vector<Expected> expected;
  for (const char* algo : {"HeteroPrio", "DualHP", "HEFT"}) {
    for (const std::size_t n : sizes) expected.push_back({algo, n, false});
  }

  std::string entry_error;
  const bool walked = jsonscan::for_each_array_object(
      json_text, "series", [&](const std::string& obj) {
        const std::string algo =
            jsonscan::string_field(obj, "algorithm").value_or("");
        const std::optional<double> n = jsonscan::number_field(obj, "n");
        const std::optional<double> rate =
            jsonscan::number_field(obj, "tasks_per_sec");
        if (algo.empty() || !n.has_value()) {
          entry_error = "series entry without algorithm/n";
          return;
        }
        if (!rate.has_value() || *rate <= 0.0) {
          entry_error =
              "series entry for " + algo + " has no positive tasks_per_sec";
          return;
        }
        for (Expected& e : expected) {
          if (e.algorithm == algo && static_cast<double>(e.n) == *n) {
            e.seen = true;
          }
        }
      });
  if (!walked) return fail("missing series array");
  if (!entry_error.empty()) return fail(entry_error);

  // Name every absent series, not just the first: a perf-check failure
  // should tell the whole story in one run.
  std::string missing;
  for (const Expected& e : expected) {
    if (e.seen) continue;
    if (!missing.empty()) missing += ", ";
    missing += e.algorithm + " at n=" + std::to_string(e.n);
  }
  if (!missing.empty()) return fail("missing series: " + missing);
  return true;
}

}  // namespace hp::perf
