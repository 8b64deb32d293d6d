#include "serve/request.hpp"

#include <sstream>

#include "baselines/dualhp.hpp"
#include "baselines/heft.hpp"
#include "core/heteroprio.hpp"
#include "core/heteroprio_dag.hpp"
#include "fault/replay.hpp"

namespace hp::serve {

namespace {

std::string fmt(double value) {
  std::ostringstream oss;
  oss.precision(17);
  oss << value;
  return oss.str();
}

}  // namespace

const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kHp: return "hp";
    case Backend::kHpNoSpol: return "hp-nospol";
    case Backend::kHeft: return "heft";
    case Backend::kDualHp: return "dualhp";
  }
  return "?";
}

bool backend_from_name(const std::string& name, Backend* out) noexcept {
  if (name == "hp") {
    *out = Backend::kHp;
  } else if (name == "hp-nospol") {
    *out = Backend::kHpNoSpol;
  } else if (name == "heft") {
    *out = Backend::kHeft;
  } else if (name == "dualhp") {
    *out = Backend::kDualHp;
  } else {
    return false;
  }
  return true;
}

Response execute_request(const Request& request) {
  Response response;
  response.tenant = request.tenant;
  const bool faulty = !request.faults.empty();
  const bool dag = request.graph.num_edges() > 0;
  switch (request.backend) {
    case Backend::kHp:
    case Backend::kHpNoSpol: {
      HeteroPrioOptions o;
      o.enable_spoliation = request.backend == Backend::kHp;
      if (faulty) o.faults = &request.faults;
      HeteroPrioStats stats;
      response.schedule =
          dag ? heteroprio_dag(request.graph, request.platform, o, &stats)
              : heteroprio(request.graph.tasks(), request.platform, o,
                           &stats);
      response.recovery = stats.recovery;
      break;
    }
    case Backend::kHeft: {
      // kFifo has no HEFT meaning; fall back to kAvg like the fuzz oracle.
      const HeftOptions o{.rank = request.rank == RankScheme::kFifo
                                      ? RankScheme::kAvg
                                      : request.rank,
                          .insertion = true};
      const Schedule plan =
          dag ? heft(request.graph, request.platform, o)
              : heft_independent(request.graph.tasks(), request.platform, o);
      if (!faulty) {
        response.schedule = plan;
      } else {
        auto replay = fault::execute_plan_with_faults(
            plan, request.graph, request.platform, request.faults, {},
            nullptr);
        response.schedule = std::move(replay.schedule);
        response.recovery = replay.recovery;
      }
      break;
    }
    case Backend::kDualHp: {
      const DualHpOptions o{.fifo_order = request.rank == RankScheme::kFifo,
                            .bisection_iters = 16};
      const Schedule plan =
          dag ? dualhp_dag(request.graph, request.platform, o)
              : dualhp(request.graph.tasks(), request.platform, o);
      if (!faulty) {
        response.schedule = plan;
      } else {
        auto replay = fault::execute_plan_with_faults(
            plan, request.graph, request.platform, request.faults, {},
            nullptr);
        response.schedule = std::move(replay.schedule);
        response.recovery = replay.recovery;
      }
      break;
    }
  }
  response.makespan = response.schedule.makespan();
  response.status = ResponseStatus::kCompleted;
  return response;
}

bool identical_schedules(const Schedule& a, const Schedule& b,
                         std::string* why) {
  const auto differ = [&](const std::string& detail) {
    if (why != nullptr) *why = detail;
    return false;
  };
  if (a.num_tasks() != b.num_tasks()) return differ("task counts differ");
  for (std::size_t i = 0; i < a.num_tasks(); ++i) {
    const Placement& pa = a.placements()[i];
    const Placement& pb = b.placements()[i];
    if (pa.worker != pb.worker || pa.start != pb.start || pa.end != pb.end) {
      return differ("task " + std::to_string(i) + ": (" +
                    std::to_string(pa.worker) + ", " + fmt(pa.start) + ", " +
                    fmt(pa.end) + ") vs (" + std::to_string(pb.worker) +
                    ", " + fmt(pb.start) + ", " + fmt(pb.end) + ")");
    }
  }
  if (a.aborted().size() != b.aborted().size()) {
    return differ("aborted-segment counts differ: " +
                  std::to_string(a.aborted().size()) + " vs " +
                  std::to_string(b.aborted().size()));
  }
  for (std::size_t i = 0; i < a.aborted().size(); ++i) {
    const AbortedSegment& sa = a.aborted()[i];
    const AbortedSegment& sb = b.aborted()[i];
    if (sa.task != sb.task || sa.worker != sb.worker ||
        sa.start != sb.start || sa.abort_time != sb.abort_time) {
      return differ("aborted segment " + std::to_string(i) + " differs");
    }
  }
  return true;
}

}  // namespace hp::serve
