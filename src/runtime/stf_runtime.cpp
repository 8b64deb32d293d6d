#include "runtime/stf_runtime.hpp"

#include <cassert>
#include <utility>

#include "bounds/dag_lower_bound.hpp"

namespace hp::runtime {

StfRuntime::StfRuntime(Platform platform, RuntimeOptions options)
    : platform_(platform), options_(options) {}

DataHandle StfRuntime::register_data(std::string name) {
  DataState state;
  state.name = name.empty() ? "d" + std::to_string(data_.size()) : std::move(name);
  data_.push_back(std::move(state));
  return static_cast<DataHandle>(data_.size() - 1);
}

TaskId StfRuntime::submit(const Task& timing,
                          std::span<const DataAccess> accesses) {
  ran_ = false;
  const TaskId id = graph_.add_task(timing);
  for (const DataAccess& access : accesses) {
    assert(access.handle >= 0 &&
           static_cast<std::size_t>(access.handle) < data_.size());
    DataState& state = data_[static_cast<std::size_t>(access.handle)];
    if (access.mode == AccessMode::kRead) {
      if (state.last_writer != kInvalidTask) {
        graph_.add_edge(state.last_writer, id);
      }
      state.readers_since_write.push_back(id);
    } else {
      if (state.last_writer != kInvalidTask) {
        graph_.add_edge(state.last_writer, id);
      }
      for (const TaskId reader : state.readers_since_write) {
        if (reader != id) graph_.add_edge(reader, id);
      }
      state.last_writer = id;
      state.readers_since_write.clear();
    }
  }
  return id;
}

TaskId StfRuntime::submit(const Task& timing,
                          std::initializer_list<DataAccess> accesses) {
  return submit(timing, std::span<const DataAccess>(accesses.begin(),
                                                    accesses.size()));
}

double StfRuntime::run() {
  if (ran_) return schedule_.makespan();
  graph_.finalize();
  assign_priorities(graph_, options_.rank);

  // Draw the actual durations (decisions always use the estimates held in
  // the graph's tasks).
  actuals_.assign(graph_.tasks().begin(), graph_.tasks().end());
  if (options_.noise_sigma > 0.0) {
    util::Rng rng(options_.noise_seed);
    for (Task& t : actuals_) {
      t.cpu_time *= rng.lognormal(0.0, options_.noise_sigma);
      t.gpu_time *= rng.lognormal(0.0, options_.noise_sigma);
    }
  }

  const fault::FaultPlan* faults = options_.faults;
  const bool faulty = faults != nullptr && !faults->empty();
  RunResult run = run_scheduler(options_.scheduler, graph_, platform_,
                                {.rank = options_.rank,
                                 .faults = faulty ? faults : nullptr,
                                 .actual_times = actuals_,
                                 .sink = options_.sink});
  schedule_ = std::move(run.schedule);
  stats_ = run.stats;
  ran_ = true;

  bound_check_ = obs::BoundCheck{};
  if (options_.check_bounds) {
    // The lower bound uses the estimate-time graph; with noisy actuals the
    // verdict is doubly advisory (DAG run + approximate bound).
    obs::WatchdogOptions wd;
    wd.dag = true;
    wd.sink = options_.sink;
    const double lb = dag_lower_bound(graph_, platform_).value();
    if (faulty) {
      // Judge the bound shape against what survived to the end of the run;
      // a platform that shrank to one class (or nothing) is checked against
      // the degenerate-shape bound, not the constructor-time one.
      const double end = schedule_.makespan();
      const int cpus = platform_.cpus() - faults->crashed_before(
                                              end, Resource::kCpu, platform_);
      const int gpus = platform_.gpus() - faults->crashed_before(
                                              end, Resource::kGpu, platform_);
      bound_check_ =
          obs::check_makespan_bound(schedule_.makespan(), lb, cpus, gpus, wd);
    } else {
      bound_check_ = obs::check_schedule_bound(schedule_, lb, platform_, wd);
    }
  }
  return schedule_.makespan();
}

}  // namespace hp::runtime
