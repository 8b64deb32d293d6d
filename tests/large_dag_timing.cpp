// Wall-clock budget of the large-DAG pipeline: each scheduler must build its
// schedule for an 11k-task Cholesky (N = 40 tiles) in under a second, the
// scale guard for the CSR graph, the incremental ready queue and HEFT's
// flat gap arrays. A timing only means something in an optimized build on
// a quiet machine, so this is its own perf-labeled ctest entry that runs
// alone (RUN_SERIAL); LargeDagSmoke checks the same schedules for validity.
//
// Usage: large_dag_timing    (exit 1 when a scheduler is over budget)

#include <chrono>
#include <iostream>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "core/heteroprio_dag.hpp"
#include "dag/ranking.hpp"
#include "linalg/cholesky.hpp"

int main() {
  using namespace hp;
  const Platform platform(20, 4);
  TaskGraph graph = cholesky_dag(40);
  assign_priorities(graph, RankScheme::kAvg);

  int over = 0;
  const auto run = [&](const char* name, auto&& schedule_fn) {
    const auto start = std::chrono::steady_clock::now();
    const Schedule schedule = schedule_fn();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::cout << name << ": " << seconds << " s, makespan "
              << schedule.makespan() << '\n';
    if (!(seconds < 1.0)) {
      std::cerr << name << " took " << seconds << " s (budget 1 s)\n";
      ++over;
    }
  };
  run("HeteroPrio", [&] { return heteroprio_dag(graph, platform); });
  run("HEFT", [&] { return heft(graph, platform); });
  run("DualHP", [&] { return dualhp_dag(graph, platform); });
  return over == 0 ? 0 : 1;
}
