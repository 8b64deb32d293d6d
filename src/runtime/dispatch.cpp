#include "runtime/dispatch.hpp"

#include <utility>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "core/heteroprio_dag.hpp"
#include "fault/replay.hpp"
#include "obs/replay.hpp"

namespace hp {

const char* scheduler_name(SchedulerId id) noexcept {
  switch (id) {
    case SchedulerId::kHp: return "hp";
    case SchedulerId::kHpNoSpol: return "hp-nospol";
    case SchedulerId::kHeft: return "heft";
    case SchedulerId::kDualHp: return "dualhp";
  }
  return "?";
}

bool scheduler_from_name(const std::string& name, SchedulerId* out) noexcept {
  for (int i = 0; i < kNumSchedulers; ++i) {
    const auto id = static_cast<SchedulerId>(i);
    if (name == scheduler_name(id)) {
      *out = id;
      return true;
    }
  }
  return false;
}

RankScheme heft_rank(RankScheme rank) noexcept {
  return rank == RankScheme::kFifo ? RankScheme::kAvg : rank;
}

RunResult run_scheduler(SchedulerId id, const TaskGraph& graph,
                        const Platform& platform, const RunOptions& options) {
  RunResult result;
  const bool dag = graph.num_edges() > 0;

  if (id == SchedulerId::kHp || id == SchedulerId::kHpNoSpol) {
    HeteroPrioOptions o;
    o.enable_spoliation = spoliates(id);
    o.actual_times = options.actual_times;
    o.sink = options.sink;
    o.metrics = options.metrics;
    o.faults = options.faults;
    result.schedule =
        dag ? heteroprio_dag(graph, platform, o, &result.stats)
            : heteroprio(graph.tasks(), platform, o, &result.stats);
    return result;
  }

  // A replayed plan's events come from the replay, not from the planner.
  const bool replay =
      options.faults != nullptr || !options.actual_times.empty();
  obs::EventSink* plan_sink = replay ? nullptr : options.sink;
  Schedule plan;
  if (id == SchedulerId::kHeft) {
    const HeftOptions o{.rank = heft_rank(options.rank),
                        .sink = plan_sink,
                        .metrics = options.metrics};
    plan = dag ? heft(graph, platform, o)
               : heft_independent(graph.tasks(), platform, o);
  } else {
    const DualHpOptions o{.fifo_order = options.rank == RankScheme::kFifo,
                          .sink = plan_sink,
                          .metrics = options.metrics};
    plan = dag ? dualhp_dag(graph, platform, o)
               : dualhp(graph.tasks(), platform, o);
  }
  if (!replay) {
    result.schedule = std::move(plan);
    return result;
  }

  const fault::FaultPlan no_faults;
  fault::FaultyReplayResult replayed = fault::execute_plan_with_faults(
      plan, graph, platform,
      options.faults != nullptr ? *options.faults : no_faults,
      options.actual_times,
      options.faults != nullptr ? options.sink : nullptr);
  result.schedule = std::move(replayed.schedule);
  result.stats.recovery = replayed.recovery;
  if (options.faults == nullptr) {
    obs::replay_schedule_to(result.schedule, platform, options.sink);
  }
  return result;
}

}  // namespace hp
