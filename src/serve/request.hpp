#pragma once
// Request/response types of the multi-tenant scheduling service, plus the
// deterministic execution contract behind its bitwise differential.
//
// A Request is one self-contained scheduling problem (workload + platform +
// backend + optional fault plan) tagged with the tenant that submitted it.
// execute_request() is a *pure function* of the request: it calls
// run_scheduler() (runtime/dispatch.hpp), the same dispatch the fuzz
// oracle's direct runs call, passing the fault plan only when it is
// non-empty. That purity is what the `serve` oracle property and the
// driver's --verify mode assert: a schedule computed through the service —
// any worker, any batching, any admission pressure — is bitwise-identical
// to the direct run_scheduler() call.

#include <cstdint>

#include "dag/ranking.hpp"
#include "dag/task_graph.hpp"
#include "fault/fault_plan.hpp"
#include "model/platform.hpp"
#include "runtime/dispatch.hpp"
#include "sched/schedule.hpp"

namespace hp::serve {

/// Engine a request is dispatched to; the service's name for SchedulerId.
using Backend = SchedulerId;
inline constexpr int kNumBackends = kNumSchedulers;

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

/// The service's differential compares with sched/schedule.hpp's bitwise
/// equality; it stays reachable under this namespace.
using hp::identical_schedules;

}  // namespace hp::serve
