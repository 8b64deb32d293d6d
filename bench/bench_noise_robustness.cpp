// Noise robustness — the motivation of §1: "nodes have many shared
// resources and exhibit complex memory access patterns that render the
// precise estimation of the duration of tasks extremely difficult", which
// "favors dynamic strategies". This experiment (not a paper figure)
// quantifies it: schedulers decide with estimated times while tasks run for
// lognormal-perturbed actual times. HeteroPrio adapts online (spoliation
// included); HEFT and DualHP plans are replayed statically.
//
// Reported: makespan normalized by the clairvoyant HeteroPrio makespan
// (HeteroPrio run directly on the actual times), averaged over seeds.
//
// The (kernel, N, sigma) cells are independent; they are fanned across a
// thread pool and gathered in grid order. Every perturbation seed is
// derived from the cell coordinates (not from submission order), so the
// output is byte-identical for any thread count (`serial` or `-jN`).
//
// With `--faults SPEC` (a fault::parse_spec string, e.g.
// "crashes=1,taskfail=0.02,retries=3") a deterministic fault plan is
// injected on top of the noise in every cell: HeteroPrio recovers online in
// the engine, the static plans go through the failover replay. The horizon
// and seed of each cell's plan are derived from the cell coordinates, so
// determinism across thread counts is preserved.
//
// Usage: bench_noise_robustness [-jN|serial] [--trace FILE] [--faults SPEC]

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/export_chrome.hpp"
#include "obs/recorder.hpp"

#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "fault/fault_plan.hpp"
#include "fault/replay.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/qr.hpp"
#include "perf/parallel_args.hpp"
#include "runtime/stf_runtime.hpp"
#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hp;

std::vector<Task> perturb(std::span<const Task> tasks, double sigma,
                          std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Task> actuals(tasks.begin(), tasks.end());
  for (Task& t : actuals) {
    t.cpu_time *= rng.lognormal(0.0, sigma);
    t.gpu_time *= rng.lognormal(0.0, sigma);
  }
  return actuals;
}

struct Kernel {
  const char* name;
  TaskGraph (*build)(int, const TimingModel&);
};

}  // namespace

int main(int argc, char** argv) {
  const Platform platform(20, 4);
  constexpr int kSeeds = 5;

  int threads = 0;
  std::string trace_path;
  fault::FaultSpec fault_spec;
  bool with_faults = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--faults" && i + 1 < argc) {
      std::string error;
      if (!fault::parse_spec(argv[++i], &fault_spec, &error)) {
        std::cerr << "--faults: " << error << '\n';
        return 2;
      }
      with_faults = true;
    } else {
      perf::consume_parallel_arg(arg, threads);
    }
  }

  std::cout << "== Noise robustness: decisions on estimates, execution on "
               "lognormal(sigma) actuals ==\n"
               "(values: makespan / clairvoyant-HeteroPrio makespan, mean "
               "over " << kSeeds << " seeds)\n\n";

  const std::vector<Kernel> kernels = {Kernel{"cholesky", &cholesky_dag},
                                       Kernel{"qr", &qr_dag}};
  const std::vector<int> tile_counts = {16, 32};
  const std::vector<double> sigmas = {0.0, 0.1, 0.2, 0.4};

  struct Row {
    double hp = 0.0;
    double heft = 0.0;
    double dual = 0.0;
  };
  std::vector<Row> rows(kernels.size() * tile_counts.size() * sigmas.size());
  util::parallel_for(rows.size(), threads, [&](std::size_t cell) {
    const std::size_t si = cell % sigmas.size();
    const std::size_t ti = (cell / sigmas.size()) % tile_counts.size();
    const std::size_t ki = cell / (sigmas.size() * tile_counts.size());
    const Kernel& kernel = kernels[ki];
    const int tiles = tile_counts[ti];
    const double sigma = sigmas[si];

    TaskGraph graph = kernel.build(tiles, TimingModel::chameleon_960());
    assign_priorities(graph, RankScheme::kMin);
    const Schedule heft_plan = heft(graph, platform, {.rank = RankScheme::kMin});
    const Schedule dual_plan = dualhp_dag(graph, platform);

    std::vector<double> hp_ratio, heft_ratio, dual_ratio;
    for (int seed = 1; seed <= kSeeds; ++seed) {
      // Seed from the cell coordinates so every thread count draws the
      // exact same perturbation for this (kernel, N, sigma, seed) cell.
      const auto actuals = perturb(
          graph.tasks(), sigma,
          util::seed_from_cell({ki, static_cast<std::uint64_t>(tiles), si,
                                static_cast<std::uint64_t>(seed)}));

      // Clairvoyant reference: HeteroPrio with exact knowledge.
      TaskGraph oracle = kernel.build(tiles, TimingModel::chameleon_960());
      for (std::size_t i = 0; i < oracle.size(); ++i) {
        oracle.task(static_cast<TaskId>(i)).cpu_time = actuals[i].cpu_time;
        oracle.task(static_cast<TaskId>(i)).gpu_time = actuals[i].gpu_time;
      }
      oracle.finalize();
      assign_priorities(oracle, RankScheme::kMin);
      const double reference = heteroprio_dag(oracle, platform).makespan();

      fault::FaultPlan plan;
      if (with_faults) {
        fault::FaultSpec spec = fault_spec;
        spec.horizon = reference;
        spec.seed = util::seed_from_cell(
            {ki, static_cast<std::uint64_t>(tiles), si,
             static_cast<std::uint64_t>(seed)},
            /*salt=*/0x6661756c74ULL);  // "fault"
        plan = fault::FaultPlan::generate(spec, platform);
      }

      HeteroPrioOptions hp_options;
      hp_options.actual_times = actuals;
      if (with_faults) hp_options.faults = &plan;
      hp_ratio.push_back(
          heteroprio_dag(graph, platform, hp_options).makespan() /
          reference);
      heft_ratio.push_back(fault::execute_plan_with_faults(
                               heft_plan, graph, platform, plan, actuals)
                               .schedule.makespan() /
                           reference);
      dual_ratio.push_back(fault::execute_plan_with_faults(
                               dual_plan, graph, platform, plan, actuals)
                               .schedule.makespan() /
                           reference);
      if (sigma == 0.0 && !with_faults) break;  // deterministic single seed
    }
    rows[cell] = Row{util::mean(hp_ratio), util::mean(heft_ratio),
                     util::mean(dual_ratio)};
  });

  util::Table table({"kernel", "N", "sigma", "HeteroPrio (online)",
                     "HEFT (static replay)", "DualHP (static replay)"},
                    3);
  std::size_t cell = 0;
  for (const Kernel& kernel : kernels) {
    for (int tiles : tile_counts) {
      for (double sigma : sigmas) {
        const Row& row = rows[cell++];
        table.row().cell(kernel.name).cell(static_cast<long long>(tiles))
            .cell(sigma).cell(row.hp).cell(row.heft).cell(row.dual);
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: the online scheduler stays near the clairvoyant "
               "reference as sigma grows,\nwhile static replays degrade — "
               "the paper's argument for dynamic runtime scheduling.\n";

  if (!trace_path.empty()) {
    // Representative noisy online run: Cholesky N=16, sigma=0.4, seed 1.
    TaskGraph graph = cholesky_dag(16, TimingModel::chameleon_960());
    assign_priorities(graph, RankScheme::kMin);
    const auto actuals =
        perturb(graph.tasks(), 0.4, util::seed_from_cell({0, 16, 3, 1}));
    obs::EventRecorder recorder;
    HeteroPrioOptions hp_options;
    hp_options.actual_times = actuals;
    hp_options.sink = &recorder;
    (void)heteroprio_dag(graph, platform, hp_options);
    std::ofstream out(trace_path);
    if (!out) {
      std::cerr << "cannot write " << trace_path << '\n';
      return 1;
    }
    out << obs::chrome_trace_from_events(recorder.events(), platform,
                                         graph.tasks());
    std::cerr << "wrote trace " << trace_path << " (" << recorder.size()
              << " events)\n";
  }
  return 0;
}
