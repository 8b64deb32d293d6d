#pragma once
// Request/response types of the multi-tenant scheduling service, plus the
// deterministic execution contract behind its bitwise differential.
//
// A Request is one self-contained scheduling problem (workload + platform +
// backend + optional fault plan) tagged with the tenant that submitted it.
// execute_request() is a *pure function* of the request, running exactly
// the engine composition the fuzz oracle's direct runs use: HeteroPrio
// (with or without spoliation) natively — faults handled online by the
// engine — and HEFT/DualHP as static plans replayed through
// fault::execute_plan_with_faults when a plan is present. That purity is
// what the `serve` oracle property and the driver's --verify mode
// assert: a schedule computed through the service — any worker, any
// batching, any admission pressure — is bitwise-identical to the direct
// engine call.

#include <cstdint>
#include <string>

#include "dag/ranking.hpp"
#include "dag/task_graph.hpp"
#include "fault/fault_plan.hpp"
#include "model/platform.hpp"
#include "sched/schedule.hpp"

namespace hp::serve {

/// Engine a request is dispatched to (same set the fuzz oracle drives).
enum class Backend : std::uint8_t { kHp = 0, kHpNoSpol, kHeft, kDualHp };
inline constexpr int kNumBackends = 4;

[[nodiscard]] const char* backend_name(Backend backend) noexcept;
[[nodiscard]] bool backend_from_name(const std::string& name,
                                     Backend* out) noexcept;

struct Request {
  int tenant = 0;
  Backend backend = Backend::kHp;
  /// Finalized workload; independent instances are edge-free. DAG requests
  /// must arrive with priorities already assigned (dag::assign_priorities
  /// with `rank`) — the service never mutates the workload.
  TaskGraph graph;
  RankScheme rank = RankScheme::kMin;
  Platform platform{1, 1};
  /// Empty = fault-free run.
  fault::FaultPlan faults;
};

enum class ResponseStatus : std::uint8_t {
  kCompleted = 0,  ///< scheduled; `schedule`/`recovery`/`makespan` are set
  kRejected,       ///< shed by admission control; counted, never dropped
};

struct Response {
  std::uint64_t id = 0;  ///< service-assigned, unique per submission
  int tenant = 0;
  ResponseStatus status = ResponseStatus::kCompleted;
  Schedule schedule;
  fault::RecoveryReport recovery;
  double makespan = 0.0;
  /// Submit-to-response wall-clock seconds (the latency the histograms and
  /// BENCH_serve.json report). 0 for direct execute_request() calls.
  double latency_seconds = 0.0;
  int served_by = -1;  ///< service worker index; -1 for rejects/direct runs
};

/// Run the request's backend directly — the pure function the service's
/// workers call and the differential tests compare against. Only the
/// schedule-bearing fields (schedule, recovery, makespan, status) are set.
[[nodiscard]] Response execute_request(const Request& request);

/// Bitwise schedule equality: placements (worker/start/end) and aborted
/// segments. Fills `*why` with the first difference when provided.
[[nodiscard]] bool identical_schedules(const Schedule& a, const Schedule& b,
                                       std::string* why = nullptr);

}  // namespace hp::serve
