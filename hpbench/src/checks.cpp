#include "checks.hpp"

namespace hpb {

void Gate::record(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (first_error_.empty()) first_error_ = what;
}

bool Gate::check_schedule(const hp::Schedule& schedule,
                          const hp::TaskGraph& graph,
                          const hp::Platform& platform,
                          const hp::ScheduleCheckOptions& options,
                          const std::string& what) {
  const hp::ScheduleCheck check =
      graph.num_edges() > 0
          ? hp::check_schedule(schedule, graph, platform, options)
          : hp::check_schedule(schedule, graph.tasks(), platform, options);
  record(check.ok, check.ok ? std::string() : what + ": " + check.message);
  return check.ok;
}

bool Gate::check_response(const hp::serve::Response& got,
                          const hp::serve::Response& expected,
                          const std::string& what) {
  std::string why;
  bool ok = got.status == expected.status;
  if (!ok) why = "status differs";
  if (ok && !hp::serve::identical_schedules(got.schedule, expected.schedule,
                                            &why)) {
    ok = false;
  }
  if (ok && !(got.recovery == expected.recovery)) {
    ok = false;
    why = "recovery report differs";
  }
  record(ok, ok ? std::string() : what + ": " + why);
  return ok;
}

bool Gate::check_accounting(const hp::serve::Service::Accounting& accounting,
                            const std::string& what) {
  const bool ok = accounting.balanced() && accounting.in_flight == 0;
  record(ok, ok ? std::string()
                : what + ": service accounting does not balance");
  return ok;
}

void Gate::merge(const Gate& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  if (first_error_.empty()) first_error_ = other.first_error_;
}

double Gate::pass_rate() const noexcept {
  if (attempted_ == 0) return 1.0;
  return static_cast<double>(attempted_ - failed_) /
         static_cast<double>(attempted_);
}

}  // namespace hpb
