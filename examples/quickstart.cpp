// Quickstart: schedule a handful of independent tasks with HeteroPrio on a
// small CPU+GPU node, show the resulting Gantt chart and the spoliation
// mechanism in action, and compare against the area-bound lower bound.
//
// Build & run:  ./examples/quickstart

#include <iostream>

#include "bounds/area_bound.hpp"
#include "core/heteroprio.hpp"
#include "model/instance.hpp"
#include "obs/export_csv.hpp"
#include "obs/recorder.hpp"
#include "sched/gantt.hpp"
#include "sched/metrics.hpp"
#include "util/table.hpp"

int main() {
  using namespace hp;

  // A node with 2 CPU cores and 1 GPU.
  const Platform platform(2, 1);

  // Six independent tasks: (cpu_time, gpu_time). Acceleration factors range
  // from 0.5 (CPU-friendly) to 16 (GPU-friendly).
  Instance inst("quickstart");
  inst.add(Task{16.0, 1.0});  // rho 16  -> GPU work
  inst.add(Task{12.0, 1.0});  // rho 12
  inst.add(Task{8.0, 2.0});   // rho 4
  inst.add(Task{6.0, 2.0});   // rho 3 (will be spoliated by the GPU)
  inst.add(Task{2.0, 4.0});   // rho 0.5 -> CPU work
  inst.add(Task{2.5, 5.0});   // rho 0.5

  std::cout << "Tasks (p = CPU time, q = GPU time, rho = p/q):\n";
  util::Table task_table({"task", "p", "q", "rho"});
  for (std::size_t i = 0; i < inst.size(); ++i) {
    const Task& t = inst[static_cast<TaskId>(i)];
    task_table.row().cell(static_cast<long long>(i)).cell(t.cpu_time)
        .cell(t.gpu_time).cell(t.accel());
  }
  task_table.print(std::cout);

  // Run HeteroPrio with its event stream recorded for an execution log.
  obs::EventRecorder recorder;
  HeteroPrioOptions options;
  options.sink = &recorder;
  HeteroPrioStats stats;
  const Schedule schedule = heteroprio(inst.tasks(), platform, options, &stats);

  std::cout << "\nExecution log:\n"
            << obs::text_from_events(recorder.events(), platform);

  std::cout << "\nGantt ('.' = work lost to spoliation):\n"
            << render_gantt(schedule, platform, {.width = 80});

  const double bound = area_bound_value(inst.tasks(), platform);
  std::cout << "\narea bound (lower bound on OPT) = "
            << util::format_double(bound, 4) << '\n'
            << "HeteroPrio makespan             = "
            << util::format_double(schedule.makespan(), 4) << '\n'
            << "ratio to area bound             = "
            << util::format_double(schedule.makespan() / bound, 4) << '\n'
            << "spoliations                     = " << stats.spoliations
            << '\n';
  return 0;
}
