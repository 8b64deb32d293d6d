#include "obs/derive.hpp"

#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

namespace hp::obs {

void derive_metrics(std::span<const Event> events, const Platform& platform,
                    MetricsRegistry* registry) {
  assert(registry != nullptr);
  const HistogramConfig config = sim_time_histogram_config();
  Histogram& queue_wait = registry->histogram("queue_wait", config);
  Histogram& task_duration = registry->histogram("task_duration", config);
  Histogram& idle_interval = registry->histogram("idle_interval", config);

  const auto workers = static_cast<std::size_t>(platform.workers());
  constexpr double kNone = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> open(workers, kNone);   // running start per worker
  std::vector<double> busy(workers, 0.0);     // completed busy per worker

  // Latest ready instant per task (a retry re-arms it); NaN once consumed.
  std::vector<double> ready_at;
  const auto ready_slot = [&](TaskId task) -> double* {
    if (task < 0) return nullptr;
    const auto i = static_cast<std::size_t>(task);
    if (i >= ready_at.size()) ready_at.resize(i + 1, kNone);
    return &ready_at[i];
  };

  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kReady:
      case EventKind::kTaskRetry:
        if (double* slot = ready_slot(e.task)) *slot = e.time;
        break;
      case EventKind::kStart: {
        if (double* slot = ready_slot(e.task); slot && !std::isnan(*slot)) {
          queue_wait.record(e.time - *slot);
          *slot = kNone;
        }
        if (e.worker >= 0) open[static_cast<std::size_t>(e.worker)] = e.time;
        break;
      }
      case EventKind::kComplete:
      case EventKind::kAbort: {
        if (e.worker < 0) break;
        double& started = open[static_cast<std::size_t>(e.worker)];
        if (std::isnan(started)) break;  // unpaired (merged/partial stream)
        if (e.kind == EventKind::kComplete) {
          task_duration.record(e.time - started);
          busy[static_cast<std::size_t>(e.worker)] += e.time - started;
        }
        started = kNone;
        break;
      }
      case EventKind::kIdleEnd:
        idle_interval.record(e.value);
        break;
      default:
        break;
    }
  }

  Histogram& busy_cpu = registry->histogram("busy_time_cpu", config);
  Histogram& busy_gpu = registry->histogram("busy_time_gpu", config);
  for (std::size_t w = 0; w < workers; ++w) {
    (platform.type_of(static_cast<WorkerId>(w)) == Resource::kCpu ? busy_cpu
                                                                  : busy_gpu)
        .record(busy[w]);
  }
}

}  // namespace hp::obs
