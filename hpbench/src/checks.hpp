#pragma once
// Correctness gate. Every operation the benchmark times is checked, and
// every check counts one attempted operation; a failed check counts one
// failure, lowers check_pass_rate and makes the command exit non-zero.

#include <cstdint>
#include <span>
#include <string>

#include "dag/task_graph.hpp"
#include "model/platform.hpp"
#include "sched/schedule.hpp"
#include "sched/validate.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace hpb {

/// Relaxed validity for runs under faults or the online runtime: tasks may
/// stay unplaced and straggler windows stretch durations.
inline constexpr hp::ScheduleCheckOptions kRelaxedCheck{
    .tol = 1e-9, .require_complete = false, .exact_durations = false};

class Gate {
 public:
  /// Count one operation; `ok == false` counts a failure described by
  /// `what` (the first one is kept for the error report).
  void record(bool ok, const std::string& what);

  /// check_schedule on a DAG (precedence included) or on its tasks when
  /// the graph has no edges. Returns whether it passed.
  bool check_schedule(const hp::Schedule& schedule, const hp::TaskGraph& graph,
                      const hp::Platform& platform,
                      const hp::ScheduleCheckOptions& options,
                      const std::string& what);

  /// Bitwise differential: a service response against a direct
  /// execute_request of the same request (status, schedule, recovery).
  bool check_response(const hp::serve::Response& got,
                      const hp::serve::Response& expected,
                      const std::string& what);

  /// The service's zero-silent-drop identity.
  bool check_accounting(const hp::serve::Service::Accounting& accounting,
                        const std::string& what);

  /// Fold in the counts of a gate another thread filled.
  void merge(const Gate& other);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& first_error() const noexcept {
    return first_error_;
  }
  /// Passed over attempted; 1 when nothing was attempted.
  [[nodiscard]] double pass_rate() const noexcept;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string first_error_;
};

}  // namespace hpb
