#include "serve/request.hpp"

#include <utility>

namespace hp::serve {

Response execute_request(const Request& request) {
  Response response;
  response.tenant = request.tenant;
  RunResult run = run_scheduler(
      request.backend, request.graph, request.platform,
      {.rank = request.rank,
       .faults = request.faults.empty() ? nullptr : &request.faults});
  response.schedule = std::move(run.schedule);
  response.recovery = run.stats.recovery;
  response.makespan = response.schedule.makespan();
  response.status = ResponseStatus::kCompleted;
  return response;
}

}  // namespace hp::serve
