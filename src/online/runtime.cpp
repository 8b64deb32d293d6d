#include "online/runtime.hpp"

#include <algorithm>
#include <cstdint>

#include "core/hp_engine.hpp"

namespace hp::online {

const char* mode_name(Mode mode) noexcept {
  switch (mode) {
    case Mode::kHealthy: return "healthy";
    case Mode::kDegraded: return "degraded";
    case Mode::kShedding: return "shedding";
  }
  return "?";
}

std::size_t effective_watermark_low(std::size_t high,
                                    std::size_t low) noexcept {
  if (high == 0) return 0;
  return std::min(low > 0 ? low : high / 2, high - 1);
}

namespace {

static_assert(static_cast<std::uint8_t>(Mode::kHealthy) == 0 &&
                  static_cast<std::uint8_t>(Mode::kDegraded) == 1 &&
                  static_cast<std::uint8_t>(Mode::kShedding) == 2,
              "the engine loop mirrors Mode as 0/1/2");

/// The engine loop of core/heteroprio.cpp with the online hooks attached.
Schedule run_online(std::span<const Task> tasks, const TaskGraph* graph,
                    const Platform& platform, const OnlineOptions& options,
                    OnlineStats* stats) {
  HeteroPrioOptions engine;
  engine.enable_spoliation = options.enable_spoliation;
  engine.victim_order = options.victim_order;
  engine.actual_times = options.actual_times;
  engine.sink = options.sink;
  engine.metrics = options.metrics;
  engine.faults = options.faults;

  detail::OnlineHooks hooks;
  if (options.arrivals != nullptr) {
    hooks.arrival = options.arrivals->arrivals();
    hooks.rel_deadline = options.arrivals->rel_deadlines();
  }
  hooks.reschedule_period = options.reschedule_period;
  hooks.watermark_high = options.watermark_high;
  hooks.watermark_low =
      effective_watermark_low(options.watermark_high, options.watermark_low);
  hooks.reject_when_shedding = options.shed_policy == ShedPolicy::kReject;
  hooks.straggler_factor = options.straggler_factor;
  hooks.respawn_budget = options.respawn_budget;

  HeteroPrioStats engine_stats;
  detail::OnlineCounters counters;
  Schedule schedule = detail::run_heteroprio(
      tasks, graph, platform, engine, &engine_stats, &hooks, &counters);
  if (stats != nullptr) {
    OnlineStats& s = *stats;
    s.tasks_arrived = counters.tasks_arrived;
    s.tasks_admitted = counters.tasks_admitted;
    s.tasks_rejected = counters.tasks_rejected;
    s.tasks_deferred = counters.tasks_deferred;
    s.deadline_misses = counters.deadline_misses;
    s.replans = counters.replans;
    s.reschedule_ticks = counters.reschedule_ticks;
    s.mode_changes = counters.mode_changes;
    s.final_mode = static_cast<Mode>(counters.final_mode);
    s.first_idle_time = engine_stats.first_idle_time;
    s.spoliations = engine_stats.spoliations;
    s.spoliation_attempts = engine_stats.spoliation_attempts;
    s.spoliation_skips = engine_stats.spoliation_skips;
    s.recovery = engine_stats.recovery;
  }
  return schedule;
}

}  // namespace

Schedule online_run(std::span<const Task> tasks, const Platform& platform,
                    const OnlineOptions& options, OnlineStats* stats) {
  return run_online(tasks, nullptr, platform, options, stats);
}

Schedule online_run_dag(const TaskGraph& graph, const Platform& platform,
                        const OnlineOptions& options, OnlineStats* stats) {
  return run_online(graph.tasks(), &graph, platform, options, stats);
}

}  // namespace hp::online
