// Drive the miniature sequential-task-flow runtime the way an application
// built on StarPU/Chameleon would: register tiles, submit kernels with data
// access modes, let the runtime infer the DAG and schedule it — here a
// tiled Cholesky factorization under imperfect duration estimates.
//
// Usage: ./examples/stf_runtime [tiles] [noise_sigma]

#include <cstdlib>
#include <iostream>
#include <vector>

#include "bounds/dag_lower_bound.hpp"
#include "linalg/kernel_timings.hpp"
#include "runtime/stf_runtime.hpp"
#include "util/table.hpp"

namespace {

using namespace hp;
using namespace hp::runtime;

void submit_cholesky(StfRuntime& rt, int tiles, const TimingModel& model) {
  std::vector<std::vector<DataHandle>> tile(
      static_cast<std::size_t>(tiles),
      std::vector<DataHandle>(static_cast<std::size_t>(tiles), kInvalidData));
  for (int i = 0; i < tiles; ++i) {
    for (int j = 0; j <= i; ++j) {
      tile[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          rt.register_data("A(" + std::to_string(i) + "," + std::to_string(j) + ")");
    }
  }
  auto h = [&](int i, int j) {
    return tile[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
  };
  for (int k = 0; k < tiles; ++k) {
    rt.submit(model.make_task(KernelKind::kPotrf), {RW(h(k, k))});
    for (int i = k + 1; i < tiles; ++i) {
      rt.submit(model.make_task(KernelKind::kTrsm), {R(h(k, k)), RW(h(i, k))});
    }
    for (int i = k + 1; i < tiles; ++i) {
      rt.submit(model.make_task(KernelKind::kSyrk), {R(h(i, k)), RW(h(i, i))});
      for (int j = k + 1; j < i; ++j) {
        rt.submit(model.make_task(KernelKind::kGemm),
                  {R(h(i, k)), R(h(j, k)), RW(h(i, j))});
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const int tiles = argc > 1 ? std::atoi(argv[1]) : 16;
  const double sigma = argc > 2 ? std::atof(argv[2]) : 0.2;
  if (tiles < 1 || tiles > 64) {
    std::cerr << "tiles must be in [1, 64]\n";
    return 1;
  }
  const Platform platform(20, 4);
  const TimingModel model = TimingModel::chameleon_960();

  std::cout << "Tiled Cholesky N=" << tiles << " through the STF runtime on "
            << "(20 CPU, 4 GPU), duration noise sigma=" << sigma << "\n\n";

  util::Table table({"scheduler", "makespan (ms)", "ratio to LB", "spoliations"},
                    3);
  double lb = 0.0;
  for (const SchedulerId scheduler :
       {SchedulerId::kHp, SchedulerId::kHeft, SchedulerId::kDualHp}) {
    RuntimeOptions options;
    options.scheduler = scheduler;
    options.rank = RankScheme::kMin;
    options.noise_sigma = sigma;
    options.noise_seed = 42;
    StfRuntime rt(platform, options);
    submit_cholesky(rt, tiles, model);
    const double makespan = rt.run();
    if (lb == 0.0) {
      // Lower bound on the *actual* instance this seed produced.
      TaskGraph actual_graph = rt.graph();  // copy, then swap in actual times
      for (std::size_t i = 0; i < actual_graph.size(); ++i) {
        actual_graph.task(static_cast<TaskId>(i)).cpu_time =
            rt.actual_times()[i].cpu_time;
        actual_graph.task(static_cast<TaskId>(i)).gpu_time =
            rt.actual_times()[i].gpu_time;
      }
      actual_graph.finalize();
      lb = dag_lower_bound(actual_graph, platform).value();
      std::cout << "tasks: " << rt.num_tasks()
                << ", dependencies: " << rt.graph().num_edges()
                << ", lower bound: " << util::format_double(lb, 1) << " ms\n\n";
    }
    table.row().cell(scheduler_name(scheduler)).cell(makespan).cell(makespan / lb)
        .cell(static_cast<long long>(rt.stats().spoliations));
  }
  table.print(std::cout);
  std::cout << "\nHeteroPrio decides online and can spoliate, so it absorbs "
               "the estimation noise;\nHEFT and DualHP plans are replayed "
               "as-is (worker assignment and order kept).\n";
  return 0;
}
