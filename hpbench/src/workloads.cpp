#include "workloads.hpp"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <thread>
#include <functional>
#include <initializer_list>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "bounds/area_bound.hpp"
#include "bounds/dag_lower_bound.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "fault/fault_plan.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "model/generators.hpp"
#include "obs/profile.hpp"
#include "online/runtime.hpp"
#include "serve/service.hpp"
#include "spans.hpp"
#include "util/rng.hpp"

namespace hpb {

namespace {

/// Salt of every seed the benchmark derives, distinct from the library's.
constexpr std::uint64_t kSalt = 0x68706231ULL;  // "hpb1"

/// Seed of one input of a run, mixed from the run's seed and the input's
/// coordinates. Each coordinate is folded into a fully mixed state, so
/// nearby seeds give unrelated inputs. util::seed_from_cell XORs all
/// coordinates into one running state instead, so (401, 0) and (403, 2)
/// give the same seed, and seeds 401 and 403 would share most problems.
std::uint64_t input_seed(std::initializer_list<std::uint64_t> coords) {
  std::uint64_t h = kSalt;
  for (const std::uint64_t c : coords) {
    std::uint64_t state = h ^ c;
    h = hp::util::splitmix64(state);
  }
  return h;
}

/// Last input_seed coordinate of the online plans of a problem and of the
/// fault plans of service templates, apart from the problem data itself.
constexpr std::uint64_t kPlanStream = 1;
constexpr std::uint64_t kServeFaultStream = 2;

/// Rounds every batch/online slot runs even when the budget is spent.
constexpr int kMinRounds = 3;

/// Target length of a block of back-to-back calls on one batch/online slot.
constexpr double kBlockSeconds = 0.005;

/// How often the serve client looks for finished responses.
constexpr auto kClientPoll = std::chrono::milliseconds(1);

// Shared by every workload. kEngineShare of --seconds goes to the batch
// engines and the online runtime, which share their rounds; kServeShare to
// the open loop. README.md gives the reasons for the values.
constexpr int kCpus = 20;
constexpr int kGpus = 4;
constexpr int kSetupReps = 15;
constexpr double kEngineShare = 0.5;
constexpr double kServeShare = 0.5;
/// Lognormal sigma of the noise on tiled-DAG task times.
constexpr double kNoiseSigma = 0.05;

// Online runtime: Poisson arrivals at the area-bound rate (tasks over the
// lower bound), deadlines of kDeadlineFactor times a task's best time,
// kRescheduleTicks ticks per lower bound, straggler respawn, and a fault
// plan of fixed shape: CPU 0 crashes at kCrashAt, CPU 1 runs kSlowdown times
// slower over [kStraggleFrom, kStraggleTo] (fractions of the lower bound),
// and every attempt fails with kTaskFailProb, up to kMaxAttempts.
constexpr double kArrivalRateFactor = 1.0;
constexpr double kDeadlineFactor = 4.0;
constexpr double kRescheduleTicks = 50.0;
constexpr double kStragglerFactor = 2.0;
constexpr int kRespawnBudget = 64;
constexpr double kCrashAt = 0.3;
constexpr double kStraggleFrom = 0.2;
constexpr double kStraggleTo = 0.6;
constexpr double kSlowdown = 4.0;
constexpr double kTaskFailProb = 0.01;
constexpr int kMaxAttempts = 4;

// Service: open loop from one generator, 2 workers, 4 tenants, admission
// watermarks armed with the defer policy. serve_p50_ms and serve.p90_ms are
// medians over windows of kLatencyWindowS seconds of due times.
constexpr int kServeWorkers = 2;
constexpr int kServeTenants = 4;
constexpr std::size_t kServeWatermarkHigh = 256;
constexpr double kLatencyWindowS = 0.5;

enum class Kind { kIndep, kDag, kMixed };

/// What differs between the workloads. Fields a kind does not use are 0.
struct WorkloadSpec {
  const char* name = "";
  Kind kind = Kind::kIndep;
  int tasks = 0;           ///< kIndep: size of the one instance
  int request_tasks = 0;   ///< kIndep: tasks per service request;
                           ///< kMixed: tasks per independent problem
  int requests = 0;        ///< kIndep: service requests cut from it
  int tiles = 0;           ///< kDag: tile count of every DAG
  int serve_variants = 0;  ///< kDag: noisy Cholesky DAGs for the service
  int problems = 0;        ///< kMixed: alternating independent and DAG
  int dag_tiles_min = 0;   ///< kMixed: DAG tile counts cycle through
  int dag_tiles_max = 0;   ///< [min, max]
  /// Online admission high watermark (defer policy).
  std::size_t watermark_high = 0;
  /// Service backends per graph, rotating hp, hp-nospol, heft, dualhp.
  int serve_backends = 0;
  /// Every serve_fault_every-th request template carries a fault plan
  /// (0 = none).
  int serve_fault_every = 0;
  double serve_rate = 0.0;        ///< offered requests per second
  double latency_limit_ms = 0.0;  ///< serve_ontime_frac's limit
};

constexpr std::array<WorkloadSpec, 3> kWorkloads{{
    // The online watermark is armed but above the backlog that arrivals at
    // the area-bound rate build here. Below it, the work of a run depends
    // on how shedding cascades: at 48, replans ranged 7.7k-17.9k over three
    // seeds.
    {.name = "batch-indep", .kind = Kind::kIndep, .tasks = 100000,
     .request_tasks = 1000, .requests = 100, .watermark_high = 2000,
     .serve_backends = 1, .serve_rate = 3000, .latency_limit_ms = 5.0},
    {.name = "batch-dag", .kind = Kind::kDag, .tiles = 16,
     .serve_variants = 16, .watermark_high = 16, .serve_backends = 1,
     .serve_rate = 600, .latency_limit_ms = 10.0},
    // A watermark of 4 is deep in the shedding regime, where the deferral
    // count barely moves between seeds; at 16 it moved by a third.
    {.name = "serve-mixed", .kind = Kind::kMixed, .request_tasks = 256,
     .problems = 64, .dag_tiles_min = 6, .dag_tiles_max = 8,
     .watermark_high = 4, .serve_backends = 4, .serve_fault_every = 5,
     .serve_rate = 3000, .latency_limit_ms = 5.0},
}};

const WorkloadSpec& find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::runtime_error("unknown workload '" + name + "'");
}

/// One scheduling problem of a workload, with everything the batch and
/// online phases need. Independent instances are edge-free graphs.
struct Problem {
  hp::TaskGraph graph;
  hp::Platform platform{1, 1};
  double lower_bound = 0.0;
  hp::online::ArrivalPlan arrivals;
  hp::fault::FaultPlan faults;

  [[nodiscard]] bool dag() const { return graph.num_edges() > 0; }
};

struct Inputs {
  std::vector<Problem> problems;
  /// Distinct service requests; the open loop sends them in rotation.
  std::vector<hp::serve::Request> templates;
};

/// Per-layer time of one setup, seconds.
struct SetupTimes {
  double total = 0.0;
  double model = 0.0;
  double linalg = 0.0;
  double rank = 0.0;
  double bounds = 0.0;
};

constexpr std::array<hp::serve::Backend, hp::serve::kNumBackends> kBackends{
    hp::serve::Backend::kHp, hp::serve::Backend::kHpNoSpol,
    hp::serve::Backend::kHeft, hp::serve::Backend::kDualHp};

constexpr std::array<const char*, 3> kTiledNames{"cholesky_dag", "qr_dag",
                                                 "lu_dag"};
constexpr int kCholesky = 0;  ///< index into kTiledNames

hp::TaskGraph tiled_dag(int kind, int tiles) {
  switch (kind) {
    case kCholesky: return hp::cholesky_dag(tiles);
    case 1: return hp::qr_dag(tiles);
    default: return hp::lu_dag(tiles);
  }
}

/// Multiplicative lognormal noise on every task time, as in the paper's
/// robustness experiment: the seed varies the times, not the DAG shape.
void add_noise(hp::TaskGraph& graph, double sigma, hp::util::Rng& rng) {
  for (std::size_t i = 0; i < graph.size(); ++i) {
    hp::Task& task = graph.task(static_cast<hp::TaskId>(i));
    task.cpu_time *= rng.lognormal(0.0, sigma);
    task.gpu_time *= rng.lognormal(0.0, sigma);
  }
}

hp::TaskGraph graph_of(std::span<const hp::Task> tasks) {
  hp::TaskGraph graph("independent");
  for (const hp::Task& task : tasks) graph.add_task(task);
  graph.finalize();
  return graph;
}

double lower_bound(const hp::TaskGraph& graph, const hp::Platform& platform) {
  return graph.num_edges() > 0
             ? hp::dag_lower_bound(graph, platform).value()
             : hp::opt_lower_bound(graph.tasks(), platform);
}

class InputFactory {
 public:
  InputFactory(const WorkloadSpec& workload, std::uint64_t seed,
               SpanRecorder* spans)
      : w_(workload), seed_(seed), spans_(spans) {}

  Inputs build() {
    SpanScope whole(spans_, "bench", "setup");
    const hp::Platform platform(kCpus, kGpus);
    Inputs in;
    std::vector<hp::TaskGraph> serve_graphs;
    switch (w_.kind) {
    case Kind::kIndep: {
      hp::Instance inst = uniform(static_cast<std::size_t>(w_.tasks), seed_);
      Problem prob;
      prob.graph = graph_call([&] { return graph_of(inst.tasks()); });
      prob.platform = platform;
      // The service carries the same tasks cut into fixed-size requests.
      const auto size = static_cast<std::size_t>(w_.request_tasks);
      const auto slices = std::min<std::size_t>(
          inst.size() / size, static_cast<std::size_t>(w_.requests));
      for (std::size_t k = 0; k < slices; ++k) {
        serve_graphs.push_back(graph_call([&] {
          return graph_of(inst.tasks().subspan(k * size, size));
        }));
      }
      in.problems.push_back(std::move(prob));
      break;
    }
    case Kind::kDag: {
      hp::util::Rng rng(input_seed({seed_}));
      for (int kind = 0; kind < 3; ++kind) {
        Problem prob;
        prob.graph = tiled(kind, w_.tiles, rng);
        prob.platform = platform;
        in.problems.push_back(std::move(prob));
      }
      // The service carries Cholesky DAGs only, each with its own noise:
      // QR and LU requests take about twice as long, so the median of a
      // two-mode mix jumped between the modes, and one DAG alone made the
      // median follow that seed's schedule.
      for (int v = 0; v < w_.serve_variants; ++v) {
        serve_graphs.push_back(tiled(kCholesky, w_.tiles, rng));
      }
      break;
    }
    case Kind::kMixed: {
      const int lo = w_.dag_tiles_min;
      const int span = w_.dag_tiles_max - lo + 1;
      for (int i = 0; i < w_.problems; ++i) {
        const std::uint64_t cell =
            input_seed({seed_, static_cast<std::uint64_t>(i)});
        Problem prob;
        prob.platform = platform;
        if (i % 2 == 0) {
          const hp::Instance inst =
              uniform(static_cast<std::size_t>(w_.request_tasks), cell);
          prob.graph = graph_call([&] { return graph_of(inst.tasks()); });
        } else {
          hp::util::Rng rng(cell);
          prob.graph = tiled(kCholesky, lo + (i / 2) % span, rng);
        }
        serve_graphs.push_back(prob.graph);
        in.problems.push_back(std::move(prob));
      }
      break;
    }
    }

    for (std::size_t i = 0; i < in.problems.size(); ++i) {
      Problem& prob = in.problems[i];
      prob.lower_bound = bound(prob.graph, platform);
      add_online_plans(prob, input_seed({seed_, i, kPlanStream}));
    }
    add_templates(serve_graphs, platform, &in);
    times_.total = whole.stop();
    return in;
  }

  [[nodiscard]] const SetupTimes& times() const noexcept { return times_; }

 private:
  template <class F>
  auto timed(double* acc, const char* layer, const char* name, F&& fn) {
    SpanScope scope(spans_, layer, name);
    auto result = fn();
    if (acc != nullptr) *acc += scope.stop();
    return result;
  }

  template <class F>
  hp::TaskGraph graph_call(F&& fn) {
    return timed(nullptr, "dag", "TaskGraph", fn);
  }

  hp::Instance uniform(std::size_t n, std::uint64_t seed) {
    return timed(&times_.model, "model", "uniform_instance", [&] {
      hp::util::Rng rng(input_seed({seed, n}));
      hp::UniformGenParams gen;
      gen.num_tasks = n;
      return hp::uniform_instance(gen, rng);
    });
  }

  hp::TaskGraph tiled(int kind, int tiles, hp::util::Rng& rng) {
    hp::TaskGraph graph = timed(
        &times_.linalg, "linalg", kTiledNames[static_cast<std::size_t>(kind)],
        [&] {
          hp::TaskGraph g = tiled_dag(kind, tiles);
          add_noise(g, kNoiseSigma, rng);
          return g;
        });
    timed(&times_.rank, "dag", "assign_priorities", [&] {
      hp::assign_priorities(graph, hp::RankScheme::kAvg);
      return 0;
    });
    return graph;
  }

  double bound(const hp::TaskGraph& graph, const hp::Platform& platform) {
    return timed(&times_.bounds, "bounds",
                 graph.num_edges() > 0 ? "dag_lower_bound" : "opt_lower_bound",
                 [&] { return lower_bound(graph, platform); });
  }

  /// Poisson arrivals at kArrivalRateFactor times the area-bound rate
  /// (tasks over the lower bound) with per-task deadlines, and a fault plan
  /// of fixed shape — CPU 0 crashes, CPU 1 straggles, at fixed fractions of
  /// the lower bound — so the makespan does not swing with which worker a
  /// seed happens to hit. `seed` (one per problem) drives the arrivals and
  /// the task-failure draws.
  void add_online_plans(Problem& prob, std::uint64_t seed) {
    const double lb = prob.lower_bound;
    prob.arrivals = timed(nullptr, "online", "ArrivalPlan::generate", [&] {
      hp::online::ArrivalSpec spec;
      spec.rate = kArrivalRateFactor *
                  static_cast<double>(prob.graph.size()) / lb;
      spec.deadline_factor = kDeadlineFactor;
      spec.seed = seed;
      return hp::online::ArrivalPlan::generate(spec, prob.graph.tasks());
    });
    prob.faults = timed(nullptr, "fault", "FaultPlan", [&] {
      hp::fault::FaultPlan plan;
      plan.add_crash(0, kCrashAt * lb);
      plan.add_straggler(1, kStraggleFrom * lb, kStraggleTo * lb, kSlowdown);
      plan.set_task_faults(kTaskFailProb, kMaxAttempts, 0.0, seed);
      return plan;
    });
  }

  /// One template per (graph, backend); every serve_fault_every-th
  /// template carries a generated fault plan.
  void add_templates(const std::vector<hp::TaskGraph>& graphs,
                     const hp::Platform& platform, Inputs* in) {
    const int backends = w_.serve_backends;
    const int fault_every = w_.serve_fault_every;
    for (const hp::TaskGraph& graph : graphs) {
      for (int b = 0; b < backends; ++b) {
        hp::serve::Request request;
        request.backend = kBackends[static_cast<std::size_t>(b)];
        request.rank = hp::RankScheme::kAvg;
        request.platform = platform;
        request.graph = graph;
        const std::size_t t = in->templates.size();
        if (fault_every > 0 &&
            t % static_cast<std::size_t>(fault_every) ==
                static_cast<std::size_t>(fault_every - 1)) {
          const double lb = bound(graph, platform);
          request.faults = timed(nullptr, "fault", "FaultPlan::generate", [&] {
            hp::fault::FaultSpec spec;
            spec.crashes = 1;
            spec.stragglers = 1;
            spec.task_fail_prob = kTaskFailProb;
            spec.horizon = lb;
            spec.seed = input_seed({seed_, t, kServeFaultStream});
            return hp::fault::FaultPlan::generate(spec, platform);
          });
        }
        in->templates.push_back(std::move(request));
      }
    }
  }

  const WorkloadSpec& w_;
  std::uint64_t seed_;
  SpanRecorder* spans_;
  SetupTimes times_;
};

/// State shared by the phases of one run.
struct Ctx {
  Ctx(const WorkloadSpec& workload, bool traced, SpanRecorder* recorder)
      : w(workload), trace(traced), spans(recorder) {}

  const WorkloadSpec& w;
  bool trace;
  SpanRecorder* spans;  ///< null in the untraced run
  Gate gate;
  std::vector<double> check_s;
  std::vector<Metric> metrics;

  /// Check one schedule; `traced` calls record a span, like the engine
  /// call they check.
  void check(const hp::Schedule& schedule, const Problem& prob,
             const hp::ScheduleCheckOptions& options, const char* what,
             bool traced) {
    SpanScope scope(traced ? spans : nullptr, "sched", "check_schedule");
    gate.check_schedule(schedule, prob.graph, prob.platform, options, what);
    check_s.push_back(scope.stop());
  }

  void put(std::string name, double value, const char* unit) {
    metrics.push_back(
        {std::move(name), std::isfinite(value) ? value : 0.0, unit});
  }
};

// ---------------------------------------------------------------- batch --

enum class Engine : int { kHp = 0, kHeft, kDualHp };
constexpr int kNumEngines = 3;

struct PhaseSample {
  std::array<double, hp::obs::kNumPhases> ns{};
  std::array<std::uint64_t, hp::obs::kNumPhases> calls{};
};

/// Timed calls of one (problem, engine) pair.
struct Slot {
  const Problem* problem = nullptr;
  Engine engine = Engine::kHp;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  std::vector<PhaseSample> phases;  ///< traced calls
  double ratio = 0.0;               ///< makespan over lower bound
  hp::HeteroPrioStats stats;        ///< kHp only
  double aborted = 0.0;             ///< aborted segment time
  double placed = 0.0;              ///< final placement time
};

const char* layer_of(Engine engine) {
  return engine == Engine::kHp ? "core" : "baselines";
}

const char* call_name(Engine engine, bool dag) {
  switch (engine) {
    case Engine::kHp: return dag ? "heteroprio_dag" : "heteroprio";
    case Engine::kHeft: return dag ? "heft" : "heft_independent";
    case Engine::kDualHp: return dag ? "dualhp_dag" : "dualhp";
  }
  return "?";
}

hp::Schedule call_engine(const Problem& prob, Engine engine,
                         hp::obs::MetricsCollector* collector,
                         hp::HeteroPrioStats* stats) {
  const bool dag = prob.dag();
  switch (engine) {
    case Engine::kHp: {
      hp::HeteroPrioOptions o;
      o.metrics = collector;
      return dag ? hp::heteroprio_dag(prob.graph, prob.platform, o, stats)
                 : hp::heteroprio(prob.graph.tasks(), prob.platform, o, stats);
    }
    case Engine::kHeft: {
      hp::HeftOptions o;
      o.rank = hp::RankScheme::kAvg;
      o.metrics = collector;
      return dag ? hp::heft(prob.graph, prob.platform, o)
                 : hp::heft_independent(prob.graph.tasks(), prob.platform, o);
    }
    case Engine::kDualHp: {
      hp::DualHpOptions o;
      o.metrics = collector;
      return dag ? hp::dualhp_dag(prob.graph, prob.platform, o)
                 : hp::dualhp(prob.graph.tasks(), prob.platform, o);
    }
  }
  throw std::logic_error("unknown engine");
}

/// One timed operation: `call(warmup, traced)` runs it once and returns
/// its duration in seconds.
using TimedCall = std::function<double(bool warmup, bool traced)>;

/// Moves the calling thread round the CPUs it may run on, one per round,
/// and gives it back all of them at the end. On a shared VM the virtual
/// CPUs run at different speeds at any one moment, and which one is slow
/// changes; each call's fastest time over every CPU keeps a slow one from
/// deciding a run.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(original_), &original_);
  }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void move_to(int step) {
    if (cpus_.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(step) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

/// Round-robin over the calls in blocks of back-to-back runs, so every
/// timed run after a block's first is warm: one warm-up run per call (which
/// also sizes its block to about kBlockSeconds), then rounds until the
/// budget is spent, at least kMinRounds of each kind. Batch and online
/// calls share the rounds, so both sample the whole window. The traced run
/// alternates traced and untraced rounds, which gives the tracing overhead.
void run_rounds(const std::vector<TimedCall>& calls, double budget_s,
                bool trace) {
  CpuRotation cpus;
  std::vector<int> block;
  for (const TimedCall& call : calls) {
    const double seconds = call(/*warmup=*/true, /*traced=*/false);
    block.push_back(static_cast<int>(std::clamp(
        std::ceil(kBlockSeconds / std::max(seconds, 1e-9)), 1.0, 1000.0)));
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(budget_s));
  const int min_rounds = trace ? 2 * kMinRounds : kMinRounds;
  for (int round = 0; round < min_rounds || Clock::now() < deadline;
       ++round) {
    // A traced and an untraced round run on the same CPU, and each goes
    // first on every other CPU, so neither always starts with cold caches.
    const int pair = trace ? round / 2 : round;
    const bool traced = trace && (round % 2 == 1) != (pair % 2 == 1);
    cpus.move_to(pair);
    for (std::size_t i = 0; i < calls.size(); ++i) {
      for (int k = 0; k < block[i]; ++k) {
        calls[i](false, traced);
      }
    }
  }
}

void placed_and_aborted(const hp::Schedule& schedule, double* placed,
                        double* aborted) {
  for (const hp::Placement& pl : schedule.placements()) {
    if (pl.placed()) *placed += pl.end - pl.start;
  }
  for (const hp::AbortedSegment& seg : schedule.aborted()) {
    *aborted += seg.abort_time - seg.start;
  }
}

/// Sum over slots of the fastest per-call time, seconds. Every call of a
/// slot does the same deterministic work on the same inputs, so the spread
/// between its calls is time the host took away; the fastest call is the
/// program's own cost. On a shared VM whose speed swings by 30 % over
/// seconds to minutes, the median followed those swings and the fastest
/// call did not (see README.md).
template <class S>
double pass_seconds(const std::vector<const S*>& slots, bool traced) {
  double total = 0.0;
  for (const S* s : slots) total += fastest(traced ? s->traced_s : s->untraced_s);
  return total;
}

template <class S>
double pass_tasks(const std::vector<const S*>& slots) {
  double total = 0.0;
  for (const S* s : slots) total += static_cast<double>(s->problem->graph.size());
  return total;
}

template <class S>
double mean_ratio(const std::vector<const S*>& slots) {
  double total = 0.0;
  for (const S* s : slots) total += s->ratio;
  return slots.empty() ? 0.0 : total / static_cast<double>(slots.size());
}

/// Sum over slots of the median per-call time, seconds. Traced and
/// untraced rounds alternate within one run, so their medians see the same
/// host, and their ratio is the tracing overhead. The fastest runs are too
/// few per kind to compare that way.
template <class S>
double pass_median_seconds(const std::vector<const S*>& slots, bool traced) {
  double total = 0.0;
  for (const S* s : slots) total += median(traced ? s->traced_s : s->untraced_s);
  return total;
}

/// Summed median call times of traced and untraced rounds.
struct TracedTimes {
  double traced = 0.0;
  double untraced = 0.0;
};

std::vector<Slot> batch_slots(const Inputs& in) {
  std::vector<Slot> slots;
  for (const Problem& prob : in.problems) {
    for (int e = 0; e < kNumEngines; ++e) {
      Slot slot;
      slot.problem = &prob;
      slot.engine = static_cast<Engine>(e);
      slots.push_back(std::move(slot));
    }
  }
  return slots;
}

double batch_call(Ctx& ctx, Slot& s, bool warmup, bool traced) {
    std::optional<hp::obs::MetricsCollector> collector;
    if (traced) collector.emplace();
    hp::HeteroPrioStats stats;
    hp::Schedule schedule;
    double seconds = 0.0;
    {
    SpanScope scope(traced ? ctx.spans : nullptr, layer_of(s.engine),
                    call_name(s.engine, s.problem->dag()));
    schedule = call_engine(*s.problem, s.engine,
                           traced ? &*collector : nullptr, &stats);
    seconds = scope.stop();
  }
  ctx.check(schedule, *s.problem, hp::ScheduleCheckOptions{},
            call_name(s.engine, s.problem->dag()), traced);
  if (warmup) {
    s.ratio = schedule.makespan() / s.problem->lower_bound;
    s.stats = stats;
    placed_and_aborted(schedule, &s.placed, &s.aborted);
    return seconds;
  }
  (traced ? s.traced_s : s.untraced_s).push_back(seconds);
  if (traced) {
    PhaseSample sample;
    for (std::size_t k = 0; k < hp::obs::kNumPhases; ++k) {
      const auto& st = collector->stats(static_cast<hp::obs::Phase>(k));
      sample.ns[k] = st.scaled_total_ns();
      sample.calls[k] = st.calls;
    }
    s.phases.push_back(sample);
  }
  return seconds;
}

TracedTimes report_batch(Ctx& ctx, const std::vector<Slot>& slots) {
  std::array<std::vector<const Slot*>, kNumEngines> by_engine;
  for (const Slot& s : slots) {
    by_engine[static_cast<std::size_t>(s.engine)].push_back(&s);
  }
  const auto& hp_slots = by_engine[0];
  const auto& heft_slots = by_engine[1];
  const auto& dual_slots = by_engine[2];
  TracedTimes times;
  for (const auto& group : by_engine) {
    times.untraced += pass_median_seconds(group, false);
    if (ctx.trace) times.traced += pass_median_seconds(group, true);
  }

  if (!ctx.trace) {
    ctx.put("hp_tasks_per_s", pass_tasks(hp_slots) / pass_seconds(hp_slots, false),
            "1/s");
    ctx.put("heft_tasks_per_s",
            pass_tasks(heft_slots) / pass_seconds(heft_slots, false), "1/s");
    ctx.put("dualhp_tasks_per_s",
            pass_tasks(dual_slots) / pass_seconds(dual_slots, false), "1/s");
    ctx.put("hp_ratio", mean_ratio(hp_slots), "ratio");
    ctx.put("heft_ratio", mean_ratio(heft_slots), "ratio");
    ctx.put("dualhp_ratio", mean_ratio(dual_slots), "ratio");
    return times;
  }

  // Per pass (one call on each problem): median phase time, exact counts.
  const auto phase_ns = [](const std::vector<const Slot*>& group,
                           hp::obs::Phase phase) {
    double total = 0.0;
    for (const Slot* s : group) {
      std::vector<double> values;
      for (const PhaseSample& ps : s->phases) {
        values.push_back(ps.ns[static_cast<std::size_t>(phase)]);
      }
      total += median(values);
    }
    return total;
  };
  const auto phase_calls = [](const std::vector<const Slot*>& group,
                              hp::obs::Phase phase) {
    double total = 0.0;
    for (const Slot* s : group) {
      if (!s->phases.empty()) {
        total += static_cast<double>(
            s->phases.back().calls[static_cast<std::size_t>(phase)]);
      }
    }
    return total;
  };
  using hp::obs::Phase;
  ctx.put("core.call_ms", pass_seconds(hp_slots, true) * 1e3, "ms");
  const std::array<std::pair<Phase, const char*>, 5> core_phases{{
      {Phase::kKeyBuild, "key_build"},
      {Phase::kSort, "sort"},
      {Phase::kDispatch, "dispatch"},
      {Phase::kReadyUpdate, "ready_update"},
      {Phase::kSpoliationScan, "spoliation_scan"},
  }};
  for (const auto& [phase, name] : core_phases) {
    ctx.put(std::string("core.") + name + "_ns", phase_ns(hp_slots, phase),
            "ns");
    ctx.put(std::string("core.") + name + ".calls",
            phase_calls(hp_slots, phase), "count");
  }
  double spoliations = 0.0;
  double attempts = 0.0;
  double skips = 0.0;
  double aborted = 0.0;
  double placed = 0.0;
  for (const Slot* s : hp_slots) {
    spoliations += s->stats.spoliations;
    attempts += s->stats.spoliation_attempts;
    skips += s->stats.spoliation_skips;
    aborted += s->aborted;
    placed += s->placed;
  }
  ctx.put("core.spoliations", spoliations, "count");
  ctx.put("core.spoliation_attempts", attempts, "count");
  ctx.put("core.spoliation_skips", skips, "count");
  ctx.put("core.spoliation_yield", attempts > 0 ? spoliations / attempts : 0.0,
          "fraction");
  ctx.put("core.aborted_frac", placed > 0 ? aborted / placed : 0.0,
          "fraction");
  ctx.put("baselines.heft_call_ms", pass_seconds(heft_slots, true) * 1e3, "ms");
  ctx.put("baselines.heft_rank_ns", phase_ns(heft_slots, Phase::kHeftRank),
          "ns");
  ctx.put("baselines.heft_rank.calls",
          phase_calls(heft_slots, Phase::kHeftRank), "count");
  ctx.put("baselines.heft_gap_search_ns",
          phase_ns(heft_slots, Phase::kHeftGapSearch), "ns");
  ctx.put("baselines.heft_gap_search.calls",
          phase_calls(heft_slots, Phase::kHeftGapSearch), "count");
  ctx.put("baselines.dualhp_call_ms", pass_seconds(dual_slots, true) * 1e3,
          "ms");
  ctx.put("baselines.dualhp_bisection_ns",
          phase_ns(dual_slots, Phase::kDualHpBisection), "ns");
  ctx.put("baselines.dualhp_bisection.calls",
          phase_calls(dual_slots, Phase::kDualHpBisection), "count");
  return times;
}

// --------------------------------------------------------------- online --

struct OnlineSlot {
  const Problem* problem = nullptr;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double ratio = 0.0;
  hp::online::OnlineStats stats;
};

hp::online::OnlineOptions online_options(const WorkloadSpec& w) {
  hp::online::OnlineOptions o;
  o.watermark_high = w.watermark_high;
  o.shed_policy = hp::online::ShedPolicy::kDefer;
  o.straggler_factor = kStragglerFactor;
  o.respawn_budget = kRespawnBudget;
  return o;
}

std::vector<OnlineSlot> online_slots(const Inputs& in) {
  std::vector<OnlineSlot> slots;
  for (const Problem& prob : in.problems) {
    OnlineSlot slot;
    slot.problem = &prob;
    slots.push_back(std::move(slot));
  }
  return slots;
}

double online_call(Ctx& ctx, const hp::online::OnlineOptions& base,
                   OnlineSlot& s, bool warmup, bool traced) {
  const Problem& prob = *s.problem;
  hp::online::OnlineOptions o = base;
  o.arrivals = &prob.arrivals;
  o.faults = &prob.faults;
  o.reschedule_period = prob.lower_bound / kRescheduleTicks;
  hp::online::OnlineStats stats;
  hp::Schedule schedule;
  double seconds = 0.0;
  {
    SpanScope scope(traced ? ctx.spans : nullptr, "online",
                    prob.dag() ? "online_run_dag" : "online_run");
    schedule = prob.dag()
                   ? hp::online::online_run_dag(prob.graph, prob.platform, o,
                                                &stats)
                   : hp::online::online_run(prob.graph.tasks(),
                                            prob.platform, o, &stats);
    seconds = scope.stop();
  }
  ctx.check(schedule, prob, kRelaxedCheck, "online_run", traced);
  // Zero silent drops: every task is placed, rejected or unfinished.
  std::size_t placed = 0;
  for (const hp::Placement& pl : schedule.placements()) {
    placed += pl.placed() ? 1 : 0;
  }
  const bool accounted =
      stats.tasks_arrived == prob.graph.size() &&
      placed + stats.tasks_rejected +
              static_cast<std::size_t>(stats.recovery.tasks_unfinished) ==
          prob.graph.size();
  ctx.gate.record(accounted,
                  accounted ? std::string()
                            : std::string("online_run: tasks unaccounted"));
  if (warmup) {
    s.ratio = schedule.makespan() / prob.lower_bound;
    s.stats = stats;
    return seconds;
  }
  (traced ? s.traced_s : s.untraced_s).push_back(seconds);
  return seconds;
}

TracedTimes report_online(Ctx& ctx, const std::vector<OnlineSlot>& slots) {
  std::vector<const OnlineSlot*> all;
  for (const OnlineSlot& s : slots) all.push_back(&s);
  TracedTimes times{
      .traced = ctx.trace ? pass_median_seconds(all, true) : 0.0,
      .untraced = pass_median_seconds(all, false)};
  if (!ctx.trace) {
    ctx.put("online_tasks_per_s", pass_tasks(all) / pass_seconds(all, false),
            "1/s");
    ctx.put("online_ratio", mean_ratio(all), "ratio");
    return times;
  }
  hp::online::OnlineStats sum;
  hp::fault::RecoveryReport rec;
  for (const OnlineSlot* s : all) {
    sum.replans += s->stats.replans;
    sum.reschedule_ticks += s->stats.reschedule_ticks;
    sum.mode_changes += s->stats.mode_changes;
    sum.tasks_deferred += s->stats.tasks_deferred;
    sum.tasks_rejected += s->stats.tasks_rejected;
    sum.deadline_misses += s->stats.deadline_misses;
    const hp::fault::RecoveryReport& r = s->stats.recovery;
    rec.worker_crashes += r.worker_crashes;
    rec.crash_requeues += r.crash_requeues;
    rec.task_failures += r.task_failures;
    rec.task_retries += r.task_retries;
    rec.straggler_respawns += r.straggler_respawns;
    rec.tasks_unfinished += r.tasks_unfinished;
  }
  const auto count = [](auto v) { return static_cast<double>(v); };
  ctx.put("online.call_ms", pass_seconds(all, true) * 1e3, "ms");
  ctx.put("online.replans", count(sum.replans), "count");
  ctx.put("online.reschedule_ticks", count(sum.reschedule_ticks), "count");
  ctx.put("online.mode_changes", count(sum.mode_changes), "count");
  ctx.put("online.tasks_deferred", count(sum.tasks_deferred), "count");
  ctx.put("online.tasks_rejected", count(sum.tasks_rejected), "count");
  ctx.put("online.deadline_misses", count(sum.deadline_misses), "count");
  ctx.put("fault.worker_crashes", count(rec.worker_crashes), "count");
  ctx.put("fault.crash_requeues", count(rec.crash_requeues), "count");
  ctx.put("fault.task_failures", count(rec.task_failures), "count");
  ctx.put("fault.task_retries", count(rec.task_retries), "count");
  ctx.put("fault.straggler_respawns", count(rec.straggler_respawns), "count");
  ctx.put("fault.tasks_unfinished", count(rec.tasks_unfinished), "count");
  return times;
}

// ---------------------------------------------------------------- serve --

void run_serve(Ctx& ctx, const Inputs& in, double window_s) {
  SpanScope phase(ctx.spans, "bench", "serve");
  const auto& templates = in.templates;
  const std::size_t num_templates = templates.size();
  if (num_templates == 0) throw std::runtime_error("no serve templates");

  // Expected responses and direct engine times, before the window opens.
  std::vector<hp::serve::Response> expected(num_templates);
  std::vector<double> engine_s(num_templates);
  const int reps = ctx.trace ? 5 : 1;
  for (std::size_t t = 0; t < num_templates; ++t) {
    expected[t] = hp::serve::execute_request(templates[t]);
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
      SpanScope scope(ctx.spans, "serve", "execute_request");
      const hp::serve::Response direct =
          hp::serve::execute_request(templates[t]);
      times.push_back(scope.stop());
    }
    engine_s[t] = median(times);
  }

  const double rate = ctx.w.serve_rate;
  const auto n = static_cast<std::size_t>(
      std::max<long long>(1, std::llround(rate * window_s)));
  const auto tenants = static_cast<std::size_t>(kServeTenants);
  hp::serve::ServiceOptions so;
  so.workers = kServeWorkers;
  so.max_clients = 1;
  so.watermark_high = kServeWatermarkHigh;
  so.shed_policy = hp::online::ShedPolicy::kDefer;
  hp::serve::Service service(so);

  constexpr std::size_t kAborted = std::numeric_limits<std::size_t>::max();
  std::vector<hp::serve::Service::Ticket> tickets(n);
  std::vector<double> lag_s(n, 0.0);     // submit start minus due time
  std::vector<double> submit_s(n, 0.0);  // Service::submit duration
  std::vector<double> latency_s(n, 0.0);
  std::vector<unsigned char> completed(n, 0);
  std::atomic<std::size_t> published{0};
  std::string generator_error;
  Gate client_gate;
  SpanRecorder generator_spans(ctx.trace);
  const double period = 1.0 / rate;
  const auto t0 = Clock::now() + std::chrono::milliseconds(10);

  // The client: takes responses in submission order and compares each
  // completed one with the expected response computed above. It polls
  // every kClientPoll instead of blocking on each future, so workers never
  // pay a wake-up for it and the generator never signals it.
  std::thread client([&] {
    try {
      for (std::size_t i = 0; i < n;) {
        const std::size_t have = published.load(std::memory_order_acquire);
        if (have == kAborted) return;
        if (have <= i || tickets[i].response.wait_for(std::chrono::seconds(
                             0)) != std::future_status::ready) {
          std::this_thread::sleep_for(kClientPoll);
          continue;
        }
        const hp::serve::Response r = tickets[i].response.get();
        latency_s[i] = r.latency_seconds;
        completed[i] = r.status == hp::serve::ResponseStatus::kCompleted;
        if (completed[i] != 0) {
          client_gate.check_response(r, expected[i % num_templates],
                                     "serve response");
        }
        ++i;
      }
    } catch (const std::exception& e) {
      client_gate.record(false, std::string("serve client: ") + e.what());
    }
  });
  // The open-loop generator: request i is due at t0 + i / rate whatever
  // happened to earlier requests. It copies the request before sleeping,
  // and a 1 ns timer slack keeps its wake-up close to the due time.
  std::thread generator([&] {
    try {
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      for (std::size_t i = 0; i < n; ++i) {
        hp::serve::Request request = templates[i % num_templates];
        request.tenant = static_cast<int>((i / num_templates) % tenants);
        const auto due =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(period *
                                                   static_cast<double>(i)));
        std::this_thread::sleep_until(due);
        const auto start = Clock::now();
        {
          SpanScope scope(ctx.trace ? &generator_spans : nullptr, "serve",
                          "Service::submit", static_cast<std::int64_t>(i));
          tickets[i] = service.submit(std::move(request), 0);
          submit_s[i] = scope.stop();
        }
        lag_s[i] = std::chrono::duration<double>(start - due).count();
        published.store(i + 1, std::memory_order_release);
      }
    } catch (const std::exception& e) {
      generator_error = e.what();
      published.store(kAborted, std::memory_order_release);
    }
  });
  generator.join();
  client.join();
  service.drain();
  if (!generator_error.empty()) {
    ctx.gate.record(false, "serve generator: " + generator_error);
  }
  ctx.gate.merge(client_gate);
  const hp::serve::Service::Accounting acct = service.accounting();
  ctx.gate.check_accounting(acct, "serve");
  if (ctx.spans != nullptr) ctx.spans->append(generator_spans);

  // Latency runs from the due time, so a generator stall counts. The
  // percentiles are taken per window of kLatencyWindowS of due times and
  // reported as the median over the windows, so a host stall that hits one
  // window does not decide the run.
  const double window_len = kLatencyWindowS;
  const auto windows = static_cast<std::size_t>(
      std::max(1.0, std::floor(window_s / window_len)));
  std::vector<std::vector<double>> by_window(windows);
  std::vector<double> overhead;
  double last_done = 0.0;
  double busy = 0.0;
  std::size_t done = 0;
  std::size_t ontime = 0;
  const double limit_s = ctx.w.latency_limit_ms * 1e-3;
  for (std::size_t i = 0; i < n; ++i) {
    if (completed[i] == 0) continue;
    const double due = period * static_cast<double>(i);
    const double lat = lag_s[i] + latency_s[i];
    const auto w = static_cast<std::size_t>(due / window_len);
    by_window[std::min(w, windows - 1)].push_back(lat);
    ++done;
    ontime += lat <= limit_s ? 1 : 0;
    last_done = std::max(last_done, due + lat);
    overhead.push_back(latency_s[i] - engine_s[i % num_templates]);
    busy += engine_s[i % num_templates];
  }
  const auto windowed = [&](double q) {
    std::vector<double> values;
    for (const std::vector<double>& w : by_window) {
      if (!w.empty()) values.push_back(quantile(w, q));
    }
    return median(values);
  };
  if (!ctx.trace) {
    ctx.put("serve_rps",
            last_done > 0 ? static_cast<double>(done) / last_done : 0.0,
            "1/s");
    ctx.put("serve_p50_ms", windowed(0.5) * 1e3, "ms");
    ctx.put("serve_ontime_frac",
            static_cast<double>(ontime) / static_cast<double>(n), "fraction");
    return;
  }
  for (std::size_t b = 0; b < kBackends.size(); ++b) {
    static constexpr std::array<const char*, 4> kNames{
        "serve.engine_us.hp", "serve.engine_us.hp_nospol",
        "serve.engine_us.heft", "serve.engine_us.dualhp"};
    std::vector<double> times;
    for (std::size_t t = 0; t < num_templates; ++t) {
      if (templates[t].backend == kBackends[b]) times.push_back(engine_s[t]);
    }
    ctx.put(kNames[b], median(times) * 1e6, "us");
  }
  // The tail follows host steal on a shared VM far more than the program,
  // so it is reported here, without a bound, not as an end-to-end metric.
  ctx.put("serve.p90_ms", windowed(0.9) * 1e3, "ms");
  ctx.put("serve.submit_us", median(submit_s) * 1e6, "us");
  ctx.put("serve.overhead_us", median(overhead) * 1e6, "us");
  ctx.put("serve.busy_frac",
          last_done > 0 ? busy / (so.workers * last_done) : 0.0, "fraction");
  // What the workers could complete if they did nothing but run engines:
  // the offered rate has to reach it before serve_rps falls.
  double engine_total = 0.0;
  for (const double t : engine_s) engine_total += t;
  ctx.put("serve.capacity_rps",
          so.workers * static_cast<double>(num_templates) / engine_total,
          "1/s");
  const auto count = [](auto v) { return static_cast<double>(v); };
  ctx.put("serve.accepted", count(acct.accepted), "count");
  ctx.put("serve.deferred", count(acct.deferred), "count");
  ctx.put("serve.rejected", count(acct.rejected), "count");
  ctx.put("serve.shed_mode_changes", count(acct.shed_mode_changes), "count");
  ctx.put("serve.queue_segments_allocated",
          count(service.queue_segments_allocated()), "count");
  ctx.put("serve.queue_segments_recycled",
          count(service.queue_segments_recycled()), "count");
  ctx.put("serve.gen_lag_ms",
          *std::max_element(lag_s.begin(), lag_s.end()) * 1e3, "ms");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  const WorkloadSpec& w = find_workload(options.workload);
  SpanRecorder recorder(options.trace);
  Ctx ctx(w, options.trace, options.trace ? &recorder : nullptr);

  // Set up several times; the last inputs are the ones measured.
  std::vector<SetupTimes> setups;
  Inputs in;
  for (int r = 0; r < kSetupReps; ++r) {
    in = Inputs{};
    InputFactory factory(w, options.seed, ctx.spans);
    in = factory.build();
    setups.push_back(factory.times());
  }
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> values;
    for (const SetupTimes& t : setups) values.push_back(t.*field);
    return median(values);
  };
  if (!options.trace) {
    ctx.put("setup_s", setup_median(&SetupTimes::total), "s");
  } else {
    ctx.put("model.gen_s", setup_median(&SetupTimes::model), "s");
    ctx.put("linalg.build_s", setup_median(&SetupTimes::linalg), "s");
    ctx.put("dag.rank_s", setup_median(&SetupTimes::rank), "s");
    ctx.put("bounds.lb_s", setup_median(&SetupTimes::bounds), "s");
  }

  std::vector<Slot> batch = batch_slots(in);
  std::vector<OnlineSlot> online = online_slots(in);
  const hp::online::OnlineOptions online_base = online_options(w);
  std::vector<TimedCall> calls;
  for (Slot& s : batch) {
    calls.push_back([&ctx, &s](bool warmup, bool traced) {
      return batch_call(ctx, s, warmup, traced);
    });
  }
  for (OnlineSlot& s : online) {
    calls.push_back([&ctx, &online_base, &s](bool warmup, bool traced) {
      return online_call(ctx, online_base, s, warmup, traced);
    });
  }
  {
    SpanScope phase(ctx.spans, "bench", "engines");
    run_rounds(calls, options.seconds * kEngineShare, options.trace);
  }
  const TracedTimes batch_times = report_batch(ctx, batch);
  const TracedTimes online_times = report_online(ctx, online);
  run_serve(ctx, in, options.seconds * kServeShare);

  if (!options.trace) {
    ctx.put("peak_rss_mb", peak_rss_mb(), "MB");
    ctx.put("check_pass_rate", ctx.gate.pass_rate(), "fraction");
  } else {
    ctx.put("sched.check_ms", mean(ctx.check_s) * 1e3, "ms");
    ctx.put("sched.violations", static_cast<double>(ctx.gate.failed()),
            "count");
    const std::map<std::string, double> self = recorder.self_seconds();
    for (const char* layer : {"model", "linalg", "dag", "bounds", "core",
                              "baselines", "sched", "online", "fault",
                              "serve"}) {
      const auto it = self.find(layer);
      ctx.put(std::string(layer) + ".self_ms",
              it == self.end() ? 0.0 : it->second * 1e3, "ms");
    }
    const double untraced = batch_times.untraced + online_times.untraced;
    const double traced = batch_times.traced + online_times.traced;
    ctx.put("bench.trace_overhead_frac",
            untraced > 0 ? traced / untraced - 1.0 : 0.0, "fraction");
    if (!options.trace_path.empty() &&
        !recorder.write_json(options.trace_path, options.fingerprint_json)) {
      ctx.gate.record(false, "cannot write " + options.trace_path);
    }
  }
  return RunResult{.gate = std::move(ctx.gate),
                   .metrics = std::move(ctx.metrics)};
}

}  // namespace hpb
