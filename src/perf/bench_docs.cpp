// The five BENCH documents: each one's presets, runner and predicate table.
// A runner emits exactly the row ids its table expects for the same preset;
// `bench_perf` validates every document it writes against that table.

#include <algorithm>
#include <iostream>
#include <sstream>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "baselines/heft_ref.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "core/heteroprio_ref.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "model/generators.hpp"
#include "obs/counters.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "online/runtime.hpp"
#include "perf/bench_common.hpp"
#include "sched/critical_path.hpp"
#include "serve/driver.hpp"
#include "sweep/dag_sweep.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hp::perf {

namespace {

const Platform kPlatform{20, 4};
const Platform kServePlatform{8, 2};

const char* const kCoreAlgos[] = {"HeteroPrio", "DualHP", "HEFT",
                                  "HeteroPrio-ref"};
const char* const kKernels[] = {"cholesky", "qr", "lu"};
const char* const kDagAlgos[] = {"HeteroPrio", "HEFT", "DualHP"};
const char* const kDagRefAlgos[] = {"HeteroPrio-ref", "HEFT-ref"};
const char* const kObsWorkloads[] = {"independent-uniform", "cholesky"};
/// Online arrival rates, as multiples of the platform's service rate
/// (workers / mean best duration); 0 is the batch-equivalent stream.
constexpr double kRateFactors[] = {0.0, 0.5, 1.0, 2.0, 4.0};
/// Relative deadlines of the online streams (x min(p, q)).
constexpr double kDeadlineFactor = 4.0;
constexpr int kServeWorkers[] = {1, 2, 4};
constexpr int kServeClients = 4;
/// The largest tolerated cost of attaching a metrics collector.
constexpr double kObsBudget = 0.02;
/// Salt for the per-request serve workload seed.
constexpr std::uint64_t kServeSalt = 0x73727665ULL;  // "srve"

template <typename T>
T largest(const std::vector<T>& values) {
  return values.empty() ? T{} : *std::max_element(values.begin(), values.end());
}

std::string size_id(const std::string& algo, std::size_t n) {
  return algo + "/n=" + std::to_string(n);
}

std::string dag_id(const std::string& kernel, const std::string& algo,
                   int tiles) {
  return kernel + "/" + algo + "/N=" + std::to_string(tiles);
}

std::string rate_id(double factor) {
  std::ostringstream out;
  out << "rate-" << factor << "x";
  return out.str();
}

void push(BenchDocument& out, const BenchRow& row) {
  std::cerr << "[perf-" << doc_name(out.doc) << "] " << row.id << ": "
            << row.per_sec << "/s\n";
  out.rows.push_back(row);
}

BenchRow& row_of(BenchDocument& out, const std::string& id) {
  return *std::find_if(out.rows.begin(), out.rows.end(),
                       [&](const BenchRow& r) { return r.id == id; });
}

/// `n` uniform tasks seeded from n, so every document measuring size n
/// measures the same instance.
Instance make_instance(std::size_t n) {
  util::Rng rng(util::seed_from_cell({static_cast<std::uint64_t>(n)}));
  UniformGenParams params;
  params.num_tasks = n;
  return uniform_instance(params, rng);
}

TaskGraph build_kernel(const std::string& kernel, int tiles) {
  if (kernel == "qr") return qr_dag(tiles);
  if (kernel == "lu") return lu_dag(tiles);
  return cholesky_dag(tiles);
}

// Core: schedule construction on independent uniform instances, the
// optimized engine against the reference one, and the DAG sweep's wall
// clock. Counters and the scratch-arena footprint ride on the HeteroPrio
// row at the largest n.
BenchDocument run_core(const BenchOptions& o) {
  BenchDocument out{BenchDoc::kCore, machine_header(kPlatform, o.repetitions),
                    {}};
  for (const std::size_t n : o.sizes) {
    const Instance inst = make_instance(n);
    const auto tasks = inst.tasks();
    const std::function<void()> runs[] = {
        [&] { (void)heteroprio(tasks, kPlatform); },
        [&] { (void)dualhp(tasks, kPlatform); },
        [&] { (void)heft_independent(tasks, kPlatform); },
        [&] { (void)heteroprio_reference(tasks, kPlatform); }};
    for (std::size_t a = 0; a < std::size(runs); ++a) {
      const double rate =
          static_cast<double>(n) / best_seconds(o.repetitions, {runs[a]})[0];
      push(out, BenchRow{size_id(kCoreAlgos[a], n), rate}.set(
                    "n", static_cast<double>(n)));
    }
  }

  if (const std::size_t top = largest(o.sizes); top != 0) {
    // One untimed instrumented run: the counters describe the workload the
    // throughput rows measure without perturbing their timing.
    const Instance inst = make_instance(top);
    obs::EventRecorder recorder;
    HeteroPrioOptions hp_options;
    hp_options.sink = &recorder;
    (void)heteroprio(inst.tasks(), kPlatform, hp_options);
    const obs::SchedulerCounters c =
        obs::counters_from_events(recorder.events(), kPlatform);
    const auto count = [](long long v) { return static_cast<double>(v); };
    const double ref_rate = row_of(out, size_id("HeteroPrio-ref", top)).per_sec;
    BenchRow& hp = row_of(out, size_id("HeteroPrio", top));
    hp.set("speedup_vs_reference", hp.per_sec / ref_rate)
        .set("tasks_completed", count(c.tasks_completed))
        .set("spoliation_attempts", count(c.spoliation_attempts))
        .set("spoliation_commits", count(c.spoliation_commits))
        .set("spoliation_skips", count(c.spoliation_skips))
        .set("aborts", count(c.aborts))
        .set("peak_ready_depth", count(c.peak_ready_depth))
        .set("cpu_idle_fraction", c.idle_fraction[0])
        .set("gpu_idle_fraction", c.idle_fraction[1])
        // Every timed run above drew its scratch from this thread's arena,
        // so its high water is the hot path's per-run scratch peak.
        .set("arena_reserved_bytes",
             static_cast<double>(util::scratch_arena().reserved_bytes()))
        .set("arena_high_water_bytes",
             static_cast<double>(util::scratch_arena().high_water_bytes()));
  }

  bench::SweepOptions sweep;
  sweep.platform = kPlatform;
  sweep.tile_counts = o.tiles;
  sweep.verbose = false;
  std::size_t rows = 0;
  const double seconds = best_seconds(
      o.repetitions, {[&] { rows = bench::run_dag_sweep(sweep).size(); }})[0];
  push(out, BenchRow{"dag-sweep", static_cast<double>(rows) / seconds}
                .set("rows", static_cast<double>(rows))
                .set("threads", static_cast<double>(
                                    util::resolve_threads(sweep.threads))));
  return out;
}

// Dag: the full pipeline's scheduling throughput on the tiled kernels
// (graph build untimed), with critical-path attribution of each schedule
// and the reference engines at the largest tile count.
BenchDocument run_dag(const BenchOptions& o) {
  BenchDocument out{BenchDoc::kDag, machine_header(kPlatform, o.repetitions),
                    {}};
  const int top = largest(o.tiles);
  for (const std::string kernel : kKernels) {
    for (const int tiles : o.tiles) {
      TaskGraph graph = build_kernel(kernel, tiles);
      assign_priorities(graph, RankScheme::kAvg);
      const double n = static_cast<double>(graph.size());
      const auto measure = [&](const std::string& algo, auto&& schedule) {
        // Every policy is deterministic: the last run's schedule is every
        // run's schedule.
        Schedule last;
        const double seconds =
            best_seconds(o.repetitions, {[&] { last = schedule(); }})[0];
        const CriticalPathReport cp =
            build_critical_path(last, graph.tasks(), kPlatform, &graph);
        push(out,
             BenchRow{dag_id(kernel, algo, tiles), n / seconds}
                 .set("n", n)
                 .set("makespan", last.makespan())
                 .set("cp_compute_fraction", cp.compute_fraction())
                 .set("cp_segments", static_cast<double>(cp.segments.size())));
      };
      measure("HeteroPrio", [&] { return heteroprio_dag(graph, kPlatform); });
      measure("HEFT", [&] { return heft(graph, kPlatform); });
      measure("DualHP", [&] { return dualhp_dag(graph, kPlatform); });
      if (tiles != top) continue;
      measure("HeteroPrio-ref",
              [&] { return heteroprio_dag_reference(graph, kPlatform); });
      measure("HEFT-ref", [&] { return heft_ref(graph, kPlatform); });
      for (const std::string algo : {"HeteroPrio", "HEFT"}) {
        BenchRow& row = row_of(out, dag_id(kernel, algo, tiles));
        row.set("speedup_vs_reference",
                row.per_sec / row_of(out, dag_id(kernel, algo + "-ref", tiles))
                                  .per_sec);
      }
    }
  }
  return out;
}

// Obs: HeteroPrio with and without a metrics collector, the two arms
// interleaved. "Without" is a null metrics pointer, which is what
// -DHP_OBS_OFF lowers to minus one never-taken test per scope. One
// long-lived collector per workload, as a runtime would hold it.
BenchDocument run_obs(const BenchOptions& o) {
  BenchDocument out{BenchDoc::kObs, machine_header(kPlatform, o.repetitions),
                    {}};
  const auto pair = [&](const std::string& workload, std::size_t n,
                        const std::function<void()>& plain,
                        const std::function<void()>& with_metrics) {
    const std::vector<double> best =
        best_seconds(o.repetitions, {plain, with_metrics});
    const double base = static_cast<double>(n) / best[0];
    const double inst = static_cast<double>(n) / best[1];
    push(out, BenchRow{workload + "/baseline", base}.set(
                  "n", static_cast<double>(n)));
    // Negative overheads (noise in the instrumented arm's favour) are
    // reported as measured.
    push(out, BenchRow{workload + "/instrumented", inst}
                  .set("n", static_cast<double>(n))
                  .set("overhead_fraction", base / inst - 1.0));
  };
  {
    const Instance inst = make_instance(o.sizes.at(0));
    const auto tasks = inst.tasks();
    obs::MetricsCollector collector;
    HeteroPrioOptions instrumented;
    instrumented.metrics = &collector;
    pair(kObsWorkloads[0], tasks.size(),
         [&] { (void)heteroprio(tasks, kPlatform); },
         [&] { (void)heteroprio(tasks, kPlatform, instrumented); });
  }
  TaskGraph graph = cholesky_dag(o.tiles.at(0));
  assign_priorities(graph, RankScheme::kAvg);
  obs::MetricsCollector collector;
  HeteroPrioOptions instrumented;
  instrumented.metrics = &collector;
  pair(kObsWorkloads[1], graph.size(),
       [&] { (void)heteroprio_dag(graph, kPlatform); },
       [&] { (void)heteroprio_dag(graph, kPlatform, instrumented); });
  return out;
}

// Online: an arrival-rate sweep of the rolling-horizon runtime over one
// independent instance, plus an arm far above the service rate against a
// small rejecting watermark, which must end outside healthy mode while
// still accounting for every task.
BenchDocument run_online(const BenchOptions& o) {
  BenchDocument out{BenchDoc::kOnline,
                    machine_header(kPlatform, o.repetitions), {}};
  const Instance inst = make_instance(o.sizes.at(0));
  const auto tasks = inst.tasks();
  const double n = static_cast<double>(tasks.size());
  const double batch_makespan = heteroprio(tasks, kPlatform).makespan();
  double mean = 0.0;
  for (const Task& t : tasks) mean += std::min(t.cpu_time, t.gpu_time) / n;
  const double service_rate = kPlatform.workers() / mean;

  const auto arm = [&](const std::string& id, double rate,
                       std::uint64_t seed, online::OnlineOptions run) {
    online::ArrivalSpec spec;
    spec.rate = rate;
    spec.deadline_factor = kDeadlineFactor;
    spec.seed = seed;
    const online::ArrivalPlan arrivals =
        online::ArrivalPlan::generate(spec, tasks);
    run.arrivals = &arrivals;
    online::OnlineStats stats;
    Schedule schedule;
    const double seconds = best_seconds(o.repetitions, {[&] {
      schedule = online::online_run(tasks, kPlatform, run, &stats);
    }})[0];
    std::size_t placed = 0;
    for (const Placement& p : schedule.placements()) placed += p.placed();
    const std::size_t accounted =
        placed + stats.tasks_rejected +
        static_cast<std::size_t>(stats.recovery.tasks_unfinished);
    push(out,
         BenchRow{id, n / seconds}
             .set("n", n)
             .set("rate", rate)
             .set("makespan_stretch", schedule.makespan() / batch_makespan)
             .set("deadline_miss_rate",
                  static_cast<double>(stats.deadline_misses) / n)
             .set("shed_fraction",
                  static_cast<double>(stats.tasks_rejected) / n)
             .set("replans", static_cast<double>(stats.replans))
             .set("final_mode",
                  std::string(online::mode_name(stats.final_mode)))
             .set("zero_drop", accounted == tasks.size()));
  };
  for (const double factor : kRateFactors) {
    arm(rate_id(factor), factor * service_rate, 1, {});
  }
  online::OnlineOptions saturating;
  saturating.watermark_high = static_cast<std::size_t>(kPlatform.workers()) * 2;
  saturating.shed_policy = online::ShedPolicy::kReject;
  arm("saturating", 8.0 * service_rate, 2, saturating);
  return out;
}

/// One independent uniform instance per (client, request) cell, tenants
/// striped over clients, backends rotated over the engine entry points.
serve::Request make_request(int client, int index, std::size_t tasks) {
  util::Rng rng(util::seed_from_cell({static_cast<std::uint64_t>(client),
                                      static_cast<std::uint64_t>(index)},
                                     kServeSalt));
  UniformGenParams params;
  params.num_tasks = tasks;
  const Instance inst = uniform_instance(params, rng);

  serve::Request request;
  request.tenant = client % 4;
  switch (index % 3) {
    case 0: request.backend = serve::Backend::kHp; break;
    case 1: request.backend = serve::Backend::kHeft; break;
    default: request.backend = serve::Backend::kDualHp; break;
  }
  request.platform = kServePlatform;
  TaskGraph graph("perf-serve-" + std::to_string(client) + "-" +
                  std::to_string(index));
  for (const Task& t : inst.tasks()) {
    Task task = t;
    task.priority = rng.uniform(0.0, 16.0);
    graph.add_task(task);
  }
  graph.finalize();
  request.graph = std::move(graph);
  return request;
}

// Serve: a worker-count sweep of the service under a saturating in-process
// client load, plus a shallow rejecting watermark that must shed. The
// driver measures its own rate, so each arm keeps its best report, and
// zero_drop must hold in every repetition.
BenchDocument run_serve(const BenchOptions& o) {
  BenchDocument out{BenchDoc::kServe,
                    machine_header(kServePlatform, o.repetitions), {}};
  const std::size_t tasks = o.sizes.at(0);
  const auto arm = [&](const std::string& id,
                       const serve::ServiceOptions& service) {
    serve::DriverOptions driver;
    driver.clients = kServeClients;
    driver.requests_per_client = o.requests_per_client;
    driver.service = service;
    driver.verify = false;  // the fuzz `serve` property owns the differential
    serve::DriverReport best;
    bool zero_drop = true;
    for (int r = 0; r < std::max(1, o.repetitions); ++r) {
      const serve::DriverReport report = serve::run_driver(
          [&](int client, int index) {
            return make_request(client, index, tasks);
          },
          driver);
      zero_drop = zero_drop && report.balanced && report.paired;
      if (r == 0 || report.requests_per_sec > best.requests_per_sec) {
        best = report;
      }
    }
    const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    push(out, BenchRow{id, best.requests_per_sec}
                  .set("workers", static_cast<double>(service.workers))
                  .set("clients", static_cast<double>(kServeClients))
                  .set("tasks_per_request", static_cast<double>(tasks))
                  .set("submitted", count(best.accounting.submitted))
                  .set("completed", count(best.accounting.completed))
                  .set("rejected", count(best.accounting.rejected))
                  .set("deferred", count(best.accounting.deferred))
                  .set("p50_latency_ms", best.p50_latency_seconds * 1e3)
                  .set("p99_latency_ms", best.p99_latency_seconds * 1e3)
                  .set("zero_drop", zero_drop));
  };
  for (const int workers : kServeWorkers) {
    serve::ServiceOptions service;
    service.workers = workers;
    arm("workers-" + std::to_string(workers), service);
  }
  serve::ServiceOptions saturating;
  saturating.workers = 2;
  saturating.watermark_high = 2;
  saturating.shed_policy = online::ShedPolicy::kReject;
  arm("saturating", saturating);
  return out;
}

}  // namespace

BenchOptions bench_options(BenchDoc doc, bool quick) {
  switch (doc) {
    case BenchDoc::kCore:
      return quick ? BenchOptions{2, {1000}, {4, 8}}
                   : BenchOptions{5, {1000, 10000}, {4, 8, 12, 16}};
    case BenchDoc::kDag:
      return quick ? BenchOptions{2, {}, {4, 8}}
                   : BenchOptions{3, {}, {10, 20, 40, 60}};
    case BenchDoc::kObs:
      return quick ? BenchOptions{3, {10000}, {10}}
                   : BenchOptions{7, {100000}, {40}};
    case BenchDoc::kOnline:
      return quick ? BenchOptions{2, {5000}} : BenchOptions{5, {50000}};
    case BenchDoc::kServe:
      return quick ? BenchOptions{2, {64}, {}, 24}
                   : BenchOptions{3, {256}, {}, 64};
  }
  return {};
}

BenchDocument run_bench(BenchDoc doc, const BenchOptions& options) {
  switch (doc) {
    case BenchDoc::kCore: return run_core(options);
    case BenchDoc::kDag: return run_dag(options);
    case BenchDoc::kObs: return run_obs(options);
    case BenchDoc::kOnline: return run_online(options);
    case BenchDoc::kServe: return run_serve(options);
  }
  return {};
}

BenchTable bench_table(BenchDoc doc, bool quick) {
  const BenchOptions o = bench_options(doc, quick);
  BenchTable t;
  switch (doc) {
    case BenchDoc::kCore: {
      for (const std::size_t n : o.sizes) {
        for (const char* algo : kCoreAlgos) t.ids.push_back(size_id(algo, n));
      }
      t.ids.push_back("dag-sweep");
      const std::string top = size_id("HeteroPrio", largest(o.sizes));
      t.predicates = {
          {.check = Check::kFinite, .fields = {"arena_high_water_bytes"},
           .row = top},
          {.check = Check::kPositive, .fields = {"speedup_vs_reference"},
           .row = top},
      };
      break;
    }
    case BenchDoc::kDag:
      for (const std::string kernel : kKernels) {
        for (const int tiles : o.tiles) {
          for (const char* algo : kDagAlgos) {
            t.ids.push_back(dag_id(kernel, algo, tiles));
          }
        }
        for (const char* algo : kDagRefAlgos) {
          t.ids.push_back(dag_id(kernel, algo, largest(o.tiles)));
        }
      }
      t.predicates = {
          {.check = Check::kFraction, .fields = {"cp_compute_fraction"}}};
      break;
    case BenchDoc::kObs:
      for (const std::string workload : kObsWorkloads) {
        const std::string inst = workload + "/instrumented";
        t.ids.insert(t.ids.end(), {workload + "/baseline", inst});
        // A quick document comes from loaded CI machines, where a 2% gate
        // is all noise; the budget holds the full documents.
        t.predicates.push_back({.check = Check::kFinite,
                                .fields = {"overhead_fraction"},
                                .row = inst});
        t.predicates.push_back({.check = Check::kAtMost,
                                .fields = {"overhead_fraction"},
                                .row = inst,
                                .value = kObsBudget,
                                .skip_quick = true});
      }
      break;
    case BenchDoc::kOnline:
      for (const double factor : kRateFactors) t.ids.push_back(rate_id(factor));
      t.ids.push_back("saturating");
      t.predicates = {
          {.check = Check::kPositive, .fields = {"makespan_stretch"}},
          {.check = Check::kFraction, .fields = {"deadline_miss_rate"}},
          {.check = Check::kFraction, .fields = {"shed_fraction"}},
          {.check = Check::kTrue, .fields = {"zero_drop"}},
          // All arrivals at t = 0 replay the batch engine bit for bit.
          {.check = Check::kEquals, .fields = {"makespan_stretch"},
           .row = "rate-0x", .value = 1.0},
          {.check = Check::kPositive, .fields = {"shed_fraction"},
           .row = "saturating"},
          {.check = Check::kIsNot, .fields = {"final_mode"},
           .row = "saturating", .text = "healthy"},
      };
      break;
    case BenchDoc::kServe:
      for (const int workers : kServeWorkers) {
        t.ids.push_back("workers-" + std::to_string(workers));
      }
      t.ids.push_back("saturating");
      t.predicates = {
          {.check = Check::kPositive, .fields = {"p50_latency_ms"}},
          {.check = Check::kOrdered,
           .fields = {"p50_latency_ms", "p99_latency_ms"}},
          {.check = Check::kBalanced,
           .fields = {"completed", "rejected", "submitted"}},
          {.check = Check::kTrue, .fields = {"zero_drop"}},
          {.check = Check::kPositive, .fields = {"rejected"},
           .row = "saturating"},
      };
      break;
  }
  return t;
}

}  // namespace hp::perf
