// hp_sched — command-line front end to the library.
//
//   hp_sched generate --kind cholesky --tiles 16 --out chol16.hpg
//   hp_sched bound    --in chol16.hpg --cpus 20 --gpus 4
//   hp_sched schedule --in chol16.hpg --cpus 20 --gpus 4 --algo hp \
//            [--rank min] [--gantt] [--svg out.svg] [--trace out.json]
//   hp_sched trace    --in chol16.hpg --cpus 20 --gpus 4 --out out.json \
//            [--csv out.csv]
//   hp_sched report   --in chol16.hpg --cpus 20 --gpus 4
//
// Files use the text formats of src/io/serialize.hpp: `.hpg` graphs carry
// "edge" lines; instance files (independent tasks) have none. `schedule`,
// `trace` and `report` auto-detect which one they got.

#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>
#include <iostream>
#include <map>
#include <string>
#include <string_view>

#include "baselines/online_greedy.hpp"
#include "bounds/area_bound.hpp"
#include "bounds/dag_lower_bound.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "fault/fault_plan.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/oracle.hpp"
#include "fuzz/runner.hpp"
#include "io/serialize.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/fmm.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "obs/counters.hpp"
#include "obs/derive.hpp"
#include "obs/export_chrome.hpp"
#include "obs/export_csv.hpp"
#include "obs/export_flame.hpp"
#include "obs/export_prometheus.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/recorder.hpp"
#include "obs/watchdog.hpp"
#include "online/arrival.hpp"
#include "online/runtime.hpp"
#include "runtime/dispatch.hpp"
#include "model/generators.hpp"
#include "serve/driver.hpp"
#include "util/rng.hpp"
#include "perf/bench_common.hpp"
#include "perf/perf_compare.hpp"
#include "sched/critical_path.hpp"
#include "sched/export.hpp"
#include "sched/gantt.hpp"
#include "sched/metrics.hpp"
#include "sched/validate.hpp"
#include "util/table.hpp"
#include "worstcase/instances.hpp"

namespace {

using namespace hp;

struct Args {
  std::map<std::string, std::string> options;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback = "") const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::stoi(it->second);
  }
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : std::stod(it->second);
  }
};

int usage() {
  std::cerr <<
      "usage:\n"
      "  hp_sched generate --kind cholesky|qr|qr-tt|lu|fmm --tiles N\n"
      "           [--depth D] [--independent] --out FILE\n"
      "  hp_sched info     --in FILE\n"
      "  hp_sched bound    --in FILE --cpus M --gpus N\n"
      "  hp_sched schedule --in FILE --cpus M --gpus N\n"
      "           [--algo hp|hp-nospol|heft|dualhp|online-eft|online-threshold|online-balance]\n"
      "           [--rank avg|min|fifo] [--gantt] [--svg FILE] [--trace FILE]\n"
      "  hp_sched trace    --in FILE --cpus M --gpus N [--algo ...] [--rank ...]\n"
      "           [--out FILE.json] [--csv FILE.csv]\n"
      "  hp_sched report   --in FILE --cpus M --gpus N [--algo ...] [--rank ...]\n"
      "           [--critical-path] [--metrics-out FILE.prom]\n"
      "           [--flame FILE.folded] [--tick-clock]\n"
      "  hp_sched faults   --in FILE --cpus M --gpus N [--algo hp|hp-nospol|heft|dualhp]\n"
      "           [--rank ...] [--crashes K] [--stragglers K] [--task-fail P]\n"
      "           [--slow X] [--retries K] [--backoff B] [--seed S] [--horizon H]\n"
      "           [--plan FILE.hpf] [--save-plan FILE.hpf] [--trace FILE.json]\n"
      "           [--csv FILE.csv]\n"
      "  hp_sched online   --in FILE --cpus M --gpus N [--rank ...]\n"
      "           [--rate R] [--deadline-factor F] [--arrival-seed S]\n"
      "           [--arrivals FILE.hpo] [--save-arrivals FILE.hpo]\n"
      "           [--watermark K] [--watermark-low K] [--shed defer|reject]\n"
      "           [--period T] [--straggler-factor X] [--respawns K]\n"
      "           [--crashes K] [--stragglers K] [--task-fail P] [--slow X]\n"
      "           [--retries K] [--backoff B] [--seed S] [--horizon H]\n"
      "           [--plan FILE.hpf] [--trace FILE.json] [--csv FILE.csv]\n"
      "  hp_sched serve    [--in FILE | --seed S [--tasks N]] --cpus M --gpus N\n"
      "           [--clients C] [--requests R] [--workers W] [--batch B]\n"
      "           [--watermark K] [--watermark-low K] [--shed defer|reject]\n"
      "           [--backend hp|hp-nospol|heft|dualhp|mixed] [--rank avg|min|fifo]\n"
      "           [--no-verify]\n"
      "  hp_sched perf-check --in FILE [--quick] [--against OLD]\n"
      "           [--tolerance X]\n"
      "  hp_sched fuzz     --seed S --runs N [--scheduler hp,heft,...|all]\n"
      "           [--props validity,ratio,...|all] [--out REPORT]\n"
      "           [--repro-dir DIR] [--max-tasks K] [--max-seconds T]\n"
      "           [--no-shrink]\n"
      "  hp_sched corpus   --dir DIR [--seed-worstcase]\n";
  return 2;
}

RankScheme parse_rank(const std::string& name) {
  if (name == "avg") return RankScheme::kAvg;
  if (name == "fifo") return RankScheme::kFifo;
  return RankScheme::kMin;
}

int cmd_generate(const Args& args) {
  const std::string kind = args.get("kind", "cholesky");
  const int tiles = args.get_int("tiles", 8);
  const std::string out = args.get("out");
  if (out.empty()) return usage();

  TaskGraph graph;
  if (kind == "cholesky") {
    graph = cholesky_dag(tiles);
  } else if (kind == "qr") {
    graph = qr_dag(tiles);
  } else if (kind == "qr-tt") {
    graph = qr_binary_dag(tiles);
  } else if (kind == "lu") {
    graph = lu_dag(tiles);
  } else if (kind == "fmm") {
    FmmParams params;
    params.depth = args.get_int("depth", 4);
    graph = fmm_dag(params);
  } else {
    std::cerr << "unknown kind '" << kind << "'\n";
    return 2;
  }

  const std::string text = args.options.count("independent")
                               ? io::instance_to_text(graph.to_instance())
                               : io::graph_to_text(graph);
  if (!io::save_text_file(out, text)) {
    std::cerr << "cannot write " << out << '\n';
    return 1;
  }
  std::cout << "wrote " << graph.size() << " tasks ("
            << graph.num_edges() << " edges) to " << out << '\n';
  return 0;
}

/// Summarize a workload file: per-kernel counts, work totals, rho spread.
int cmd_info(const Args& args) {
  const auto text = io::load_text_file(args.get("in"));
  if (!text.has_value()) {
    std::cerr << "cannot read " << args.get("in") << '\n';
    return 1;
  }
  std::string error;
  std::vector<Task> tasks;
  std::string name;
  std::size_t edges = 0;
  double cp_min = 0.0;
  if (text->find("\nedge ") != std::string::npos) {
    const auto graph = io::graph_from_text(*text, &error);
    if (!graph.has_value()) {
      std::cerr << error << '\n';
      return 1;
    }
    tasks.assign(graph->tasks().begin(), graph->tasks().end());
    name = graph->name();
    edges = graph->num_edges();
    cp_min = critical_path(*graph, RankScheme::kMin);
  } else {
    const auto inst = io::instance_from_text(*text, &error);
    if (!inst.has_value()) {
      std::cerr << error << '\n';
      return 1;
    }
    tasks.assign(inst->tasks().begin(), inst->tasks().end());
    name = inst->name();
  }

  std::map<KernelKind, std::pair<int, double>> per_kind;  // count, cpu work
  double cpu_work = 0.0, gpu_work = 0.0;
  double rho_min = std::numeric_limits<double>::infinity(), rho_max = 0.0;
  for (const Task& t : tasks) {
    auto& entry = per_kind[t.kind];
    ++entry.first;
    entry.second += t.cpu_time;
    cpu_work += t.cpu_time;
    gpu_work += t.gpu_time;
    rho_min = std::min(rho_min, t.accel());
    rho_max = std::max(rho_max, t.accel());
  }
  std::cout << "name: " << name << "\ntasks: " << tasks.size()
            << "\nedges: " << edges << "\ntotal cpu work: " << cpu_work
            << "\ntotal gpu work: " << gpu_work << "\nrho range: [" << rho_min
            << ", " << rho_max << "]\n";
  if (cp_min > 0.0) std::cout << "critical path (min): " << cp_min << '\n';
  util::Table table({"kernel", "count", "cpu work", "share %"}, 2);
  for (const auto& [kind, entry] : per_kind) {
    table.row().cell(kernel_name(kind))
        .cell(static_cast<long long>(entry.first)).cell(entry.second)
        .cell(100.0 * entry.second / cpu_work);
  }
  table.print(std::cout);
  return 0;
}

int cmd_bound(const Args& args) {
  const auto text = io::load_text_file(args.get("in"));
  if (!text.has_value()) {
    std::cerr << "cannot read " << args.get("in") << '\n';
    return 1;
  }
  const Platform platform(args.get_int("cpus", 20), args.get_int("gpus", 4));
  std::string error;
  if (text->find("\nedge ") != std::string::npos) {
    const auto graph = io::graph_from_text(*text, &error);
    if (!graph.has_value()) {
      std::cerr << error << '\n';
      return 1;
    }
    const DagLowerBound lb = dag_lower_bound(*graph, platform);
    std::cout << "tasks: " << graph->size() << "\narea bound: " << lb.area
              << "\ncritical path (min): " << lb.critical_path
              << "\nsegmented: " << lb.segmented
              << "\nlower bound: " << lb.value() << '\n';
  } else {
    const auto inst = io::instance_from_text(*text, &error);
    if (!inst.has_value()) {
      std::cerr << error << '\n';
      return 1;
    }
    const AreaBoundResult ab = area_bound(inst->tasks(), platform);
    std::cout << "tasks: " << inst->size() << "\narea bound: " << ab.bound
              << "\nthreshold rho: " << ab.threshold_accel
              << "\nlower bound: " << opt_lower_bound(inst->tasks(), platform)
              << '\n';
  }
  return 0;
}

/// One scheduler run of the CLI: loaded workload, validated schedule and
/// the event stream the run emitted (native for HeteroPrio, replayed for
/// the static planners).
struct CliRun {
  Schedule schedule;
  TaskGraph graph;  ///< the workload; edge-free for an instance file
  double lower_bound = 0.0;
  bool is_graph = false;
  obs::EventRecorder events;
};

/// Load `--in`, run `--algo` with an event recorder attached and validate
/// the schedule. On failure prints the error and sets `exit_code`.
/// `metrics` (optional) attaches a phase-profiling collector to the
/// schedulers that support one (hp, hp-nospol, heft, dualhp); the online
/// rules ignore it.
std::optional<CliRun> run_algorithm(const Args& args,
                                    const Platform& platform,
                                    int* exit_code,
                                    obs::MetricsCollector* metrics = nullptr) {
  const auto text = io::load_text_file(args.get("in"));
  if (!text.has_value()) {
    std::cerr << "cannot read " << args.get("in") << '\n';
    *exit_code = 1;
    return std::nullopt;
  }
  const std::string algo = args.get("algo", "hp");
  const RankScheme rank = parse_rank(args.get("rank", "min"));

  CliRun result;
  result.is_graph = text->find("\nedge ") != std::string::npos;
  std::string error;
  if (result.is_graph) {
    auto graph = io::graph_from_text(*text, &error);
    if (!graph.has_value()) {
      std::cerr << error << '\n';
      *exit_code = 1;
      return std::nullopt;
    }
    assign_priorities(*graph, rank);
    result.lower_bound = dag_lower_bound(*graph, platform).value();
    result.graph = std::move(*graph);
  } else {
    const auto inst = io::instance_from_text(*text, &error);
    if (!inst.has_value()) {
      std::cerr << error << '\n';
      *exit_code = 1;
      return std::nullopt;
    }
    result.lower_bound = opt_lower_bound(inst->tasks(), platform);
    for (const Task& t : inst->tasks()) result.graph.add_task(t);
    result.graph.finalize();
  }

  obs::EventSink* sink = &result.events;
  SchedulerId id{};
  if (scheduler_from_name(algo, &id)) {
    result.schedule =
        run_scheduler(id, result.graph, platform,
                      {.rank = rank, .sink = sink, .metrics = metrics})
            .schedule;
  } else if (result.is_graph) {
    std::cerr << "algorithm '" << algo << "' needs an independent-task "
              << "instance (or is unknown)\n";
    *exit_code = 2;
    return std::nullopt;
  } else if (algo == "online-eft") {
    result.schedule = online_greedy(result.graph.tasks(), platform,
                                    {OnlineRule::kEft, 1.0, sink});
  } else if (algo == "online-threshold") {
    result.schedule = online_greedy(result.graph.tasks(), platform,
                                    {OnlineRule::kThreshold, 1.0, sink});
  } else if (algo == "online-balance") {
    result.schedule = online_greedy(result.graph.tasks(), platform,
                                    {OnlineRule::kBalance, 1.0, sink});
  } else {
    std::cerr << "unknown algorithm '" << algo << "'\n";
    *exit_code = 2;
    return std::nullopt;
  }

  const auto check = check_schedule(result.schedule, result.graph, platform);
  if (!check.ok) {
    std::cerr << "internal error: invalid schedule: " << check.message << '\n';
    *exit_code = 1;
    return std::nullopt;
  }
  return result;
}

int cmd_schedule(const Args& args) {
  const Platform platform(args.get_int("cpus", 20), args.get_int("gpus", 4));
  int exit_code = 0;
  auto run = run_algorithm(args, platform, &exit_code);
  if (!run.has_value()) return exit_code;
  const std::string algo = args.get("algo", "hp");
  const Schedule& schedule = run->schedule;
  const std::span<const Task> tasks = run->graph.tasks();
  const double lower_bound = run->lower_bound;

  const ScheduleMetrics metrics = compute_metrics(schedule, tasks, platform);
  std::cout << "algorithm: " << algo << "\ntasks: " << tasks.size()
            << "\nmakespan: " << schedule.makespan()
            << "\nlower bound: " << lower_bound
            << "\nratio: " << schedule.makespan() / lower_bound
            << "\nspoliations: " << schedule.spoliation_count()
            << "\ncpu idle: " << metrics.cpu.idle_time
            << "\ngpu idle: " << metrics.gpu.idle_time << '\n';

  if (args.options.count("gantt")) {
    std::cout << render_gantt(schedule, platform, {.width = 100});
  }
  if (const std::string svg = args.get("svg"); !svg.empty()) {
    if (!io::save_text_file(svg, to_svg_gantt(schedule, tasks, platform))) {
      std::cerr << "cannot write " << svg << '\n';
      return 1;
    }
    std::cout << "wrote " << svg << '\n';
  }
  if (const std::string trace = args.get("trace"); !trace.empty()) {
    if (!io::save_text_file(trace,
                            obs::chrome_trace_from_events(
                                run->events.events(), platform, tasks))) {
      std::cerr << "cannot write " << trace << '\n';
      return 1;
    }
    std::cout << "wrote " << trace << '\n';
  }
  return 0;
}

/// Export the run's event stream: Chrome trace-event JSON (`--out`, loadable
/// in Perfetto / chrome://tracing) and/or the flat event CSV (`--csv`).
int cmd_trace(const Args& args) {
  const Platform platform(args.get_int("cpus", 20), args.get_int("gpus", 4));
  const std::string out = args.get("out");
  const std::string csv = args.get("csv");
  if (out.empty() && csv.empty()) {
    std::cerr << "trace: need --out FILE and/or --csv FILE\n";
    return usage();
  }
  int exit_code = 0;
  const auto run = run_algorithm(args, platform, &exit_code);
  if (!run.has_value()) return exit_code;

  if (!out.empty()) {
    // Embed the run's rollup (scheduler counters, cp_* attribution,
    // histogram summaries) as trace metadata, filled the way `report`
    // fills the registry behind its Prometheus exposition.
    obs::MetricsRegistry metrics;
    obs::add_to_registry(
        obs::counters_from_events(run->events.events(), platform), &metrics);
    add_to_registry(
        build_critical_path(run->schedule, run->graph.tasks(), platform,
                            run->is_graph ? &run->graph : nullptr),
        &metrics);
    obs::derive_metrics(run->events.events(), platform, &metrics);
    const std::string json = obs::chrome_trace_from_events(
        run->events.events(), platform, run->graph.tasks(), &metrics);
    std::string error;
    if (!obs::validate_chrome_trace(json, platform, &error)) {
      std::cerr << "internal error: emitted trace is invalid: " << error
                << '\n';
      return 1;
    }
    if (!io::save_text_file(out, json)) {
      std::cerr << "cannot write " << out << '\n';
      return 1;
    }
    std::cout << "wrote " << out << " (" << run->events.size()
              << " events)\n";
  }
  if (!csv.empty()) {
    if (!io::save_text_file(csv, obs::csv_from_events(run->events.events()))) {
      std::cerr << "cannot write " << csv << '\n';
      return 1;
    }
    std::cout << "wrote " << csv << " (" << run->events.size()
              << " events)\n";
  }
  return 0;
}

/// Counter report plus bound-watchdog verdict of one run. With
/// `--critical-path`, also attribute the makespan to the chain of task
/// executions and waits that produced it (sched/critical_path.hpp) and add
/// the cp_* aggregates to the counter table.
///
/// `--metrics-out FILE` writes a Prometheus text exposition of the run: the
/// phase-timer stats of an attached MetricsCollector, the distribution
/// metrics derived from the event stream (queue-wait, task durations, idle
/// intervals, per-resource busy time) and every counter — scheduler
/// counters and the cp_* critical-path attribution, the same gauges the
/// text report prints, so the two cannot drift apart.
/// `--flame FILE` writes the collector's call paths as collapsed stacks
/// (speedscope-compatible); `--tick-clock` swaps the wall clock for the
/// deterministic tick clock so both outputs are byte-stable.
int cmd_report(const Args& args) {
  const Platform platform(args.get_int("cpus", 20), args.get_int("gpus", 4));
  const std::string metrics_out = args.get("metrics-out");
  const std::string flame_out = args.get("flame");
  obs::TickClock tick_clock;
  obs::MetricsCollector collector(
      args.options.count("tick-clock") != 0 ? &tick_clock : nullptr);
  const bool collect = !metrics_out.empty() || !flame_out.empty();
  int exit_code = 0;
  const auto run = run_algorithm(args, platform, &exit_code,
                                 collect ? &collector : nullptr);
  if (!run.has_value()) return exit_code;

  // One registry for the table and the exposition. The phase totals go in
  // first so the exposition lists them ahead of the scheduler gauges; the
  // table starts after them.
  obs::MetricsRegistry metrics;
  collector.export_to(&metrics);
  const std::size_t phase_gauges = metrics.gauges().size();
  obs::add_to_registry(
      obs::counters_from_events(run->events.events(), platform), &metrics);
  std::optional<CriticalPathReport> cp;
  // The exposition always carries the cp_* attribution — a scrape should
  // not depend on the report flag; the flag only controls the prose.
  if (args.options.count("critical-path") != 0 || !metrics_out.empty()) {
    cp = build_critical_path(run->schedule, run->graph.tasks(), platform,
                             run->is_graph ? &run->graph : nullptr);
    add_to_registry(*cp, &metrics);
  }
  std::cout << "algorithm: " << args.get("algo", "hp")
            << "\ntasks: " << run->graph.size()
            << "\nmakespan: " << run->schedule.makespan()
            << "\nlower bound: " << run->lower_bound << "\n\n"
            << obs::counter_table(metrics, phase_gauges) << '\n';
  if (cp.has_value() && args.options.count("critical-path") != 0) {
    std::cout << describe(*cp, run->graph.tasks(), platform) << '\n';
  }

  if (!metrics_out.empty()) {
    obs::derive_metrics(run->events.events(), platform, &metrics);
    const std::string text = obs::prometheus_text(metrics);
    std::string error;
    if (!obs::validate_prometheus_text(text, &error)) {
      std::cerr << "internal error: emitted exposition is invalid: " << error
                << '\n';
      return 1;
    }
    if (!io::save_text_file(metrics_out, text)) {
      std::cerr << "cannot write " << metrics_out << '\n';
      return 1;
    }
    std::cout << "wrote " << metrics_out << '\n';
  }
  if (!flame_out.empty()) {
    if (!io::save_text_file(flame_out, obs::collapsed_stacks(collector))) {
      std::cerr << "cannot write " << flame_out << '\n';
      return 1;
    }
    std::cout << "wrote " << flame_out << '\n';
  }

  obs::WatchdogOptions wd;
  wd.dag = run->is_graph;
  const obs::BoundCheck check = obs::check_schedule_bound(
      run->schedule, run->lower_bound, platform, wd);
  std::cout << "watchdog: " << obs::describe(check) << '\n';
  return check.violated && !check.advisory ? 3 : 0;
}

/// Fault-injection run: build (or load) a deterministic fault plan, run the
/// chosen scheduler through it, and report the recovery outcome, surviving-
/// platform watchdog verdict and counters.
int cmd_faults(const Args& args) {
  const auto text = io::load_text_file(args.get("in"));
  if (!text.has_value()) {
    std::cerr << "cannot read " << args.get("in") << '\n';
    return 1;
  }
  const Platform platform(args.get_int("cpus", 20), args.get_int("gpus", 4));
  const std::string algo = args.get("algo", "hp");
  SchedulerId id{};
  if (!scheduler_from_name(algo, &id)) {
    std::cerr << "unknown algorithm '" << algo << "' (faults supports "
              << "hp|hp-nospol|heft|dualhp)\n";
    return 2;
  }
  const RankScheme rank = parse_rank(args.get("rank", "min"));

  // Load the workload; an independent-task instance becomes an edge-free
  // graph, which the dispatch runs with the independent-task entry points.
  std::string error;
  TaskGraph graph;
  if (text->find("\nedge ") != std::string::npos) {
    auto parsed = io::graph_from_text(*text, &error);
    if (!parsed.has_value()) {
      std::cerr << error << '\n';
      return 1;
    }
    graph = std::move(*parsed);
  } else {
    const auto inst = io::instance_from_text(*text, &error);
    if (!inst.has_value()) {
      std::cerr << error << '\n';
      return 1;
    }
    for (const Task& t : inst->tasks()) graph.add_task(t);
    graph.finalize();
  }
  assign_priorities(graph, rank);
  const double lower_bound = dag_lower_bound(graph, platform).value();

  // The fault plan: from a file, or generated around the fault-free
  // HeteroPrio makespan so injected instants land inside the run.
  fault::FaultPlan plan;
  if (const std::string plan_file = args.get("plan"); !plan_file.empty()) {
    const auto plan_text = io::load_text_file(plan_file);
    if (!plan_text.has_value()) {
      std::cerr << "cannot read " << plan_file << '\n';
      return 1;
    }
    if (!fault::FaultPlan::from_text(*plan_text, &plan, &error)) {
      std::cerr << plan_file << ": " << error << '\n';
      return 1;
    }
  } else {
    fault::FaultSpec spec;
    spec.crashes = args.get_int("crashes", 0);
    spec.stragglers = args.get_int("stragglers", 0);
    spec.task_fail_prob = args.get_double("task-fail", 0.0);
    if (args.options.count("slow")) {
      spec.slowdown_min = spec.slowdown_max = args.get_double("slow", 4.0);
    }
    spec.max_attempts = args.get_int("retries", 3) + 1;
    spec.retry_backoff = args.get_double("backoff", 0.0);
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    spec.horizon = args.get_double("horizon", 0.0);
    if (spec.horizon <= 0.0) {
      spec.horizon = heteroprio_dag(graph, platform).makespan();
    }
    plan = fault::FaultPlan::generate(spec, platform);
  }
  std::cout << plan.describe();
  if (const std::string save = args.get("save-plan"); !save.empty()) {
    if (!io::save_text_file(save, plan.to_text())) {
      std::cerr << "cannot write " << save << '\n';
      return 1;
    }
    std::cout << "wrote " << save << '\n';
  }

  obs::EventRecorder events;
  const RunResult run = run_scheduler(
      id, graph, platform, {.rank = rank, .faults = &plan, .sink = &events});
  const Schedule& schedule = run.schedule;
  const fault::RecoveryReport& recovery = run.stats.recovery;

  // Straggler windows stretch wall-clock durations and a degraded run may
  // leave tasks unplaced; everything that ran must still be exclusive and
  // dependency-ordered.
  const auto check = check_schedule(
      schedule, graph, platform,
      ScheduleCheckOptions{.require_complete = false,
                           .exact_durations = plan.stragglers().empty() &&
                                              plan.task_fail_prob() <= 0.0 &&
                                              plan.crashes().empty()});
  if (!check.ok) {
    std::cerr << "internal error: invalid schedule: " << check.message << '\n';
    return 1;
  }

  const double makespan = schedule.makespan();
  std::cout << "\nalgorithm: " << algo << "\ntasks: " << graph.size()
            << "\nmakespan: " << makespan << "\nlower bound: " << lower_bound
            << "\nratio: " << makespan / lower_bound
            << "\nworker crashes: " << recovery.worker_crashes
            << "\ncrash requeues: " << recovery.crash_requeues
            << "\nstraggler windows: " << recovery.straggler_windows
            << "\ntask failures: " << recovery.task_failures
            << "\ntask retries: " << recovery.task_retries
            << "\ntasks abandoned: " << recovery.tasks_abandoned
            << "\ntasks unfinished: " << recovery.tasks_unfinished
            << "\ndegraded: " << (recovery.degraded ? "yes" : "no") << '\n';

  // Watchdog against the platform that survived to the end of the run.
  const int cpus =
      platform.cpus() - plan.crashed_before(makespan, Resource::kCpu, platform);
  const int gpus =
      platform.gpus() - plan.crashed_before(makespan, Resource::kGpu, platform);
  obs::WatchdogOptions wd;
  wd.dag = graph.num_edges() > 0;
  const obs::BoundCheck bound_check =
      obs::check_makespan_bound(makespan, lower_bound, cpus, gpus, wd);
  std::cout << "surviving platform: " << cpus << " cpu + " << gpus
            << " gpu\nwatchdog: " << obs::describe(bound_check) << '\n';

  if (const std::string trace = args.get("trace"); !trace.empty()) {
    const std::string json = obs::chrome_trace_from_events(
        events.events(), platform, graph.tasks());
    if (!obs::validate_chrome_trace(json, platform, &error)) {
      std::cerr << "internal error: emitted trace is invalid: " << error
                << '\n';
      return 1;
    }
    if (!io::save_text_file(trace, json)) {
      std::cerr << "cannot write " << trace << '\n';
      return 1;
    }
    std::cout << "wrote " << trace << " (" << events.size() << " events)\n";
  }
  if (const std::string csv = args.get("csv"); !csv.empty()) {
    if (!io::save_text_file(csv, obs::csv_from_events(events.events()))) {
      std::cerr << "cannot write " << csv << '\n';
      return 1;
    }
    std::cout << "wrote " << csv << " (" << events.size() << " events)\n";
  }
  return 0;
}

/// Rolling-horizon online run: tasks arrive over simulated time (generated
/// Poisson stream or a .hpo file), optionally under a fault plan, with
/// admission control, deadlines, and straggler respawn. Prints the
/// robustness accounting and asserts the zero-silent-drop identity.
int cmd_online(const Args& args) {
  const auto text = io::load_text_file(args.get("in"));
  if (!text.has_value()) {
    std::cerr << "cannot read " << args.get("in") << '\n';
    return 1;
  }
  const Platform platform(args.get_int("cpus", 20), args.get_int("gpus", 4));
  const RankScheme rank = parse_rank(args.get("rank", "min"));

  std::string error;
  TaskGraph graph;
  if (text->find("\nedge ") != std::string::npos) {
    auto parsed = io::graph_from_text(*text, &error);
    if (!parsed.has_value()) {
      std::cerr << error << '\n';
      return 1;
    }
    graph = std::move(*parsed);
  } else {
    const auto inst = io::instance_from_text(*text, &error);
    if (!inst.has_value()) {
      std::cerr << error << '\n';
      return 1;
    }
    for (const Task& t : inst->tasks()) graph.add_task(t);
    graph.finalize();
  }
  assign_priorities(graph, rank);
  const double lower_bound = dag_lower_bound(graph, platform).value();

  // Fault plan: a file, or generated when any injection flag is present.
  fault::FaultPlan plan;
  if (const std::string plan_file = args.get("plan"); !plan_file.empty()) {
    const auto plan_text = io::load_text_file(plan_file);
    if (!plan_text.has_value()) {
      std::cerr << "cannot read " << plan_file << '\n';
      return 1;
    }
    if (!fault::FaultPlan::from_text(*plan_text, &plan, &error)) {
      std::cerr << plan_file << ": " << error << '\n';
      return 1;
    }
  } else if (args.options.count("crashes") || args.options.count("stragglers") ||
             args.options.count("task-fail") || args.options.count("slow")) {
    fault::FaultSpec spec;
    spec.crashes = args.get_int("crashes", 0);
    spec.stragglers = args.get_int("stragglers", 0);
    spec.task_fail_prob = args.get_double("task-fail", 0.0);
    if (args.options.count("slow")) {
      spec.slowdown_min = spec.slowdown_max = args.get_double("slow", 4.0);
    }
    spec.max_attempts = args.get_int("retries", 3) + 1;
    spec.retry_backoff = args.get_double("backoff", 0.0);
    spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    spec.horizon = args.get_double("horizon", 0.0);
    if (spec.horizon <= 0.0) {
      spec.horizon = heteroprio_dag(graph, platform).makespan();
    }
    plan = fault::FaultPlan::generate(spec, platform);
  }

  // Arrival stream: a .hpo file, or a Poisson draw from --rate (0 = batch).
  online::ArrivalPlan arrivals;
  if (const std::string file = args.get("arrivals"); !file.empty()) {
    const auto arrivals_text = io::load_text_file(file);
    if (!arrivals_text.has_value()) {
      std::cerr << "cannot read " << file << '\n';
      return 1;
    }
    if (!online::ArrivalPlan::from_text(*arrivals_text, &arrivals, &error)) {
      std::cerr << file << ": " << error << '\n';
      return 1;
    }
  } else {
    online::ArrivalSpec spec;
    spec.rate = args.get_double("rate", 0.0);
    spec.deadline_factor = args.get_double("deadline-factor", 0.0);
    spec.seed = static_cast<std::uint64_t>(args.get_int("arrival-seed", 1));
    arrivals = online::ArrivalPlan::generate(spec, graph.tasks());
  }
  std::cout << arrivals.describe();
  if (const std::string save = args.get("save-arrivals"); !save.empty()) {
    if (!io::save_text_file(save, arrivals.to_text())) {
      std::cerr << "cannot write " << save << '\n';
      return 1;
    }
    std::cout << "wrote " << save << '\n';
  }

  obs::EventRecorder events;
  online::OnlineOptions options;
  options.sink = &events;
  if (!plan.empty()) options.faults = &plan;
  options.arrivals = &arrivals;
  options.reschedule_period = args.get_double("period", 0.0);
  options.watermark_high =
      static_cast<std::size_t>(args.get_int("watermark", 0));
  options.watermark_low =
      static_cast<std::size_t>(args.get_int("watermark-low", 0));
  options.shed_policy = args.get("shed", "defer") == "reject"
                            ? online::ShedPolicy::kReject
                            : online::ShedPolicy::kDefer;
  options.straggler_factor = args.get_double("straggler-factor", 0.0);
  options.respawn_budget = args.get_int("respawns", 0);

  online::OnlineStats stats;
  const Schedule schedule =
      graph.num_edges() > 0
          ? online::online_run_dag(graph, platform, options, &stats)
          : online::online_run(graph.tasks(), platform, options, &stats);

  const auto check = check_schedule(
      schedule, graph, platform,
      ScheduleCheckOptions{.require_complete = false,
                           .exact_durations = false});
  if (!check.ok) {
    std::cerr << "internal error: invalid schedule: " << check.message << '\n';
    return 1;
  }
  // Zero-silent-drop identity, enforced at the CLI boundary too.
  std::size_t placed = 0;
  for (const Placement& p : schedule.placements()) placed += p.placed() ? 1 : 0;
  if (placed + stats.tasks_rejected +
          static_cast<std::size_t>(stats.recovery.tasks_unfinished) !=
      graph.size()) {
    std::cerr << "internal error: accounting leak (placed " << placed
              << " + rejected " << stats.tasks_rejected << " + unfinished "
              << stats.recovery.tasks_unfinished << " != " << graph.size()
              << ")\n";
    return 1;
  }

  const double makespan = schedule.makespan();
  std::cout << "\ntasks: " << graph.size() << "\nmakespan: " << makespan
            << "\nlower bound: " << lower_bound
            << "\nratio: " << makespan / lower_bound
            << "\narrived: " << stats.tasks_arrived
            << "\nadmitted: " << stats.tasks_admitted
            << "\nrejected: " << stats.tasks_rejected
            << "\ndeferred: " << stats.tasks_deferred
            << "\ndeadline misses: " << stats.deadline_misses
            << "\nreplans: " << stats.replans
            << "\nreschedule ticks: " << stats.reschedule_ticks
            << "\nmode changes: " << stats.mode_changes
            << "\nfinal mode: " << online::mode_name(stats.final_mode)
            << "\nworker crashes: " << stats.recovery.worker_crashes
            << "\ntask failures: " << stats.recovery.task_failures
            << "\ntask retries: " << stats.recovery.task_retries
            << "\nstraggler respawns: " << stats.recovery.straggler_respawns
            << "\ntasks abandoned: " << stats.recovery.tasks_abandoned
            << "\ntasks unfinished: " << stats.recovery.tasks_unfinished
            << "\ndegraded: " << (stats.recovery.degraded ? "yes" : "no")
            << '\n';

  if (const std::string trace = args.get("trace"); !trace.empty()) {
    const std::string json = obs::chrome_trace_from_events(
        events.events(), platform, graph.tasks());
    if (!obs::validate_chrome_trace(json, platform, &error)) {
      std::cerr << "internal error: emitted trace is invalid: " << error
                << '\n';
      return 1;
    }
    if (!io::save_text_file(trace, json)) {
      std::cerr << "cannot write " << trace << '\n';
      return 1;
    }
    std::cout << "wrote " << trace << " (" << events.size() << " events)\n";
  }
  if (const std::string csv = args.get("csv"); !csv.empty()) {
    if (!io::save_text_file(csv, obs::csv_from_events(events.events()))) {
      std::cerr << "cannot write " << csv << '\n';
      return 1;
    }
    std::cout << "wrote " << csv << " (" << events.size() << " events)\n";
  }
  return 0;
}

/// Validate an emitted BENCH file: strict JSON, read against the predicate
/// table its schema tag selects, naming every failing check. `--quick`
/// expects the rows of `bench_perf --quick` and skips the obs overhead
/// budget. With `--against OLD`, additionally join the rows by id against a
/// previous BENCH file and fail if none joined, or if any regressed beyond
/// `--tolerance` (default 0.25) or went missing, printing each with its
/// delta.
int cmd_perf_check(const Args& args) {
  const auto parse = [](const std::string& path, obs::JsonValue* doc) {
    const auto text = io::load_text_file(path);
    std::string error = "cannot read file";
    if (text.has_value() && obs::json_parse(*text, doc, &error)) return true;
    std::cerr << "invalid baseline " << path << ": " << error << '\n';
    return false;
  };
  const std::string in = args.get("in");
  obs::JsonValue doc;
  if (!parse(in, &doc)) return 1;
  const std::vector<std::string> failures =
      perf::validate_bench(doc, args.options.count("quick") != 0);
  for (const std::string& failure : failures) {
    std::cerr << "invalid baseline " << in << ": " << failure << '\n';
  }
  if (!failures.empty()) return 1;

  if (const std::string against = args.get("against"); !against.empty()) {
    obs::JsonValue old_doc;
    if (!parse(against, &old_doc)) return 1;
    const double tolerance = args.get_double("tolerance", 0.25);
    const perf::PerfComparison cmp =
        perf::compare_series(old_doc, doc, tolerance);
    std::cout << perf::format_comparison(cmp);
    if (cmp.joined() == 0) {
      std::cerr << "perf-check: no row of " << against << " joins a row of "
                << in << '\n';
      return 1;
    }
    if (!cmp.ok()) {
      std::cerr << "perf-check: " << cmp.regressed.size()
                << " rows regressed beyond " << tolerance * 100.0
                << "% and " << cmp.missing.size() << " went missing\n";
      return 1;
    }
  }
  std::cout << in << ": ok\n";
  return 0;
}

/// In-process service driver: C client threads submit R scheduling
/// requests each through the multi-tenant service (src/serve/), then the
/// driver cross-checks request/response pairing, the zero-silent-drop
/// accounting identity, and — unless --no-verify — the bitwise
/// differential of every completed response against the direct engine
/// call. Workloads come from --in FILE (every request schedules that file)
/// or a --seed generator (one uniform instance per (client, request) cell).
int cmd_serve(const Args& args) {
  const Platform platform(args.get_int("cpus", 4), args.get_int("gpus", 2));
  if (platform.workers() == 0) {
    std::cerr << "platform has no workers (cpus+gpus=0)\n";
    return 2;
  }

  serve::DriverOptions driver;
  driver.clients = args.get_int("clients", 4);
  driver.requests_per_client = args.get_int("requests", 32);
  driver.verify = args.options.count("no-verify") == 0;
  driver.service.workers = args.get_int("workers", 2);
  driver.service.batch_size =
      args.get_int("batch", driver.service.batch_size);
  driver.service.watermark_high =
      static_cast<std::size_t>(args.get_int("watermark", 0));
  driver.service.watermark_low =
      static_cast<std::size_t>(args.get_int("watermark-low", 0));
  if (const std::string shed = args.get("shed", "defer"); shed == "reject") {
    driver.service.shed_policy = online::ShedPolicy::kReject;
  } else if (shed != "defer") {
    std::cerr << "unknown shed policy '" << shed << "'\n";
    return 2;
  }

  const std::string backend_arg = args.get("backend", "mixed");
  SchedulerId fixed_backend{};
  const bool mixed = backend_arg == "mixed";
  if (!mixed && !scheduler_from_name(backend_arg, &fixed_backend)) {
    std::cerr << "unknown backend '" << backend_arg << "'\n";
    return 2;
  }
  const auto pick_backend = [&](int index) {
    if (!mixed) return fixed_backend;
    switch (index % 3) {
      case 0: return SchedulerId::kHp;
      case 1: return SchedulerId::kHeft;
      default: return SchedulerId::kDualHp;
    }
  };
  const RankScheme rank = parse_rank(args.get("rank", "min"));

  // Fixed-file workload: every request schedules the file's graph (DAG
  // priorities re-assigned under --rank, matching `hp_sched schedule`).
  TaskGraph base;
  const std::string in = args.get("in");
  if (!in.empty()) {
    const auto text = io::load_text_file(in);
    if (!text.has_value()) {
      std::cerr << "cannot read " << in << '\n';
      return 1;
    }
    std::string error;
    if (text->find("\nedge ") != std::string::npos) {
      auto graph = io::graph_from_text(*text, &error);
      if (!graph.has_value()) {
        std::cerr << error << '\n';
        return 1;
      }
      assign_priorities(*graph, rank);
      base = std::move(*graph);
    } else {
      const auto inst = io::instance_from_text(*text, &error);
      if (!inst.has_value()) {
        std::cerr << error << '\n';
        return 1;
      }
      TaskGraph graph(inst->name());
      for (const Task& t : inst->tasks()) graph.add_task(t);
      graph.finalize();
      base = std::move(graph);
    }
  }
  const std::uint64_t seed = std::stoull(args.get("seed", "1"));
  const std::size_t gen_tasks =
      static_cast<std::size_t>(std::max(1, args.get_int("tasks", 64)));

  const serve::DriverReport report = serve::run_driver(
      [&](int client, int index) {
        serve::Request request;
        request.tenant = client;
        request.backend = pick_backend(index);
        request.platform = platform;
        request.rank = rank;
        if (!in.empty()) {
          request.graph = base;
        } else {
          util::Rng rng(util::seed_from_cell(
              {seed, static_cast<std::uint64_t>(client),
               static_cast<std::uint64_t>(index)}));
          UniformGenParams params;
          params.num_tasks = gen_tasks;
          const Instance inst = uniform_instance(params, rng);
          TaskGraph graph("serve-" + std::to_string(client) + "-" +
                          std::to_string(index));
          for (const Task& t : inst.tasks()) {
            Task task = t;
            task.priority = rng.uniform(0.0, 16.0);
            graph.add_task(task);
          }
          graph.finalize();
          request.graph = std::move(graph);
        }
        return request;
      },
      driver);

  util::Table table({"tenant", "submitted", "completed", "rejected",
                     "deferred", "p50 ms", "p99 ms"},
                    3);
  for (const serve::DriverTenantReport& t : report.tenants) {
    table.row().cell(t.tenant).cell(t.submitted).cell(t.completed)
        .cell(t.rejected).cell(t.deferred)
        .cell(t.p50_latency_seconds * 1e3).cell(t.p99_latency_seconds * 1e3);
  }
  std::cout << "== Service run: " << driver.clients << " clients x "
            << driver.requests_per_client << " requests over "
            << driver.service.workers << " workers ==\n";
  table.print(std::cout);
  const serve::Service::Accounting& acct = report.accounting;
  std::cout << "accounting: submitted " << acct.submitted << " = accepted "
            << acct.accepted << " + rejected " << acct.rejected
            << " (deferred " << acct.deferred << ", shed-mode changes "
            << acct.shed_mode_changes << ")\n"
            << "throughput: " << report.requests_per_sec << " req/s, p50 "
            << report.p50_latency_seconds * 1e3 << " ms, p99 "
            << report.p99_latency_seconds * 1e3 << " ms over "
            << report.wall_seconds << " s\n";
  if (!report.ok()) {
    std::cerr << "serve: FAILED: " << report.first_error << '\n';
    return 1;
  }
  std::cout << "serve: ok (" << report.responses
            << " responses paired, accounting balanced"
            << (driver.verify ? ", bitwise differential held" : "") << ")\n";
  return 0;
}

/// Parse "hp,heft" / "all" into scheduler ids (empty = all).
bool parse_scheduler_list(const std::string& text,
                          std::vector<SchedulerId>* out) {
  out->clear();
  if (text.empty() || text == "all") return true;
  std::istringstream iss(text);
  std::string name;
  while (std::getline(iss, name, ',')) {
    SchedulerId id{};
    if (!scheduler_from_name(name, &id)) {
      std::cerr << "unknown scheduler '" << name << "'\n";
      return false;
    }
    out->push_back(id);
  }
  return true;
}

int cmd_fuzz(const Args& args) {
  fuzz::RunnerOptions options;
  options.seed = std::stoull(args.get("seed", "1"));
  options.runs = args.get_int("runs", 100);
  options.knobs.max_tasks = args.get_int("max-tasks", options.knobs.max_tasks);
  options.max_seconds = args.get_double("max-seconds", 0.0);
  options.shrink_failures = args.options.count("no-shrink") == 0;
  options.out_dir = args.get("repro-dir");
  if (!parse_scheduler_list(args.get("scheduler", "all"),
                            &options.schedulers)) {
    return 2;
  }
  std::string error;
  if (!fuzz::parse_props(args.get("props", "all"), &options.oracle.props,
                         &error)) {
    std::cerr << error << '\n';
    return 2;
  }

  const fuzz::FuzzReport report = fuzz::run_fuzz(options);
  const std::string text = fuzz::format_report(report, options);
  const std::string out = args.get("out");
  if (!out.empty()) {
    if (!io::save_text_file(out, text)) {
      std::cerr << "cannot write " << out << '\n';
      return 1;
    }
  }
  std::cout << text;
  if (!report.ok()) {
    std::cerr << report.failures.size()
              << " property violation(s); shrunk repros above\n";
    return 1;
  }
  return 0;
}

/// Distill a worst-case family witness into a corpus entry whose min-ratio
/// directive pins the measured makespan/lower-bound ratio.
fuzz::CorpusCase worstcase_entry(const WorstCaseInstance& wc,
                                 const std::string& name) {
  fuzz::CorpusCase entry;
  TaskGraph graph(name);
  for (const Task& t : wc.instance.tasks()) graph.add_task(t);
  graph.finalize();
  entry.c.graph = std::move(graph);
  entry.c.name = name;
  entry.c.platform = wc.platform;
  const double lb = opt_lower_bound(entry.c.graph.tasks(), wc.platform);
  const double makespan =
      heteroprio(entry.c.graph.tasks(), wc.platform, {}).makespan();
  if (lb > 0.0) entry.min_ratio = makespan / lb;
  return entry;
}

int cmd_corpus(const Args& args) {
  const std::string dir = args.get("dir", "tests/corpus");
  if (args.options.count("seed-worstcase") != 0) {
    const std::vector<std::pair<std::string, WorstCaseInstance>> families = {
        {"thm8-phi", theorem8_instance()},
        {"thm11-m4", theorem11_instance(4, 8)},
        {"thm14-k1", theorem14_instance(1)},
    };
    for (const auto& [name, wc] : families) {
      const std::string path = dir + "/" + name + ".hpi";
      if (!fuzz::save_corpus_file(path, worstcase_entry(wc, name))) {
        std::cerr << "cannot write " << path << '\n';
        return 1;
      }
      std::cout << "wrote " << path << '\n';
    }
  }

  const std::vector<std::string> files = fuzz::list_corpus_files(dir);
  if (files.empty()) {
    std::cerr << "no corpus files (*.hpi/*.hpg) under " << dir << '\n';
    return 1;
  }
  int bad = 0;
  for (const std::string& path : files) {
    fuzz::CorpusCase entry;
    std::string error;
    if (!fuzz::load_corpus_file(path, &entry, &error)) {
      std::cerr << error << '\n';
      ++bad;
      continue;
    }
    const fuzz::CorpusVerdict verdict = fuzz::replay_corpus_case(entry);
    if (verdict.ok()) {
      std::cout << path << ": ok (" << verdict.properties_checked
                << " properties over " << verdict.schedulers_replayed
                << " schedulers)\n";
    } else {
      ++bad;
      for (const fuzz::PropertyFailure& f : verdict.failures) {
        std::cerr << path << ": " << f.property << " [" << f.scheduler
                  << "] " << f.detail << '\n';
      }
    }
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  Args args;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    key = key.substr(2);
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      args.options[key] = argv[++i];
    } else {
      args.options[key] = "1";  // boolean flag
    }
  }
  if (command == "generate") return cmd_generate(args);
  if (command == "info") return cmd_info(args);
  if (command == "bound") return cmd_bound(args);
  if (command == "schedule") return cmd_schedule(args);
  if (command == "trace") return cmd_trace(args);
  if (command == "report") return cmd_report(args);
  if (command == "faults") return cmd_faults(args);
  if (command == "online") return cmd_online(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "perf-check") return cmd_perf_check(args);
  if (command == "fuzz") return cmd_fuzz(args);
  if (command == "corpus") return cmd_corpus(args);
  return usage();
}
