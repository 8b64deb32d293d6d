#include "serve/service.hpp"

#include <cassert>
#include <chrono>
#include <utility>

namespace hp::serve {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

/// One submitted request in service custody: the request itself, the
/// promise its ticket resolves, and the enqueue timestamp the latency
/// histogram is fed from. Owned by exactly one stage at a time (intake
/// queue, parked queue, or the worker executing it), which is what makes
/// "no request lost or double-served" a structural property.
struct PendingRequest {
  explicit PendingRequest(Request r) : request(std::move(r)) {}

  Request request;
  std::promise<Response> promise;
  std::uint64_t id = 0;
  Clock::time_point submit_time;
};

const char* admission_name(Admission admission) noexcept {
  switch (admission) {
    case Admission::kAccepted: return "accepted";
    case Admission::kDeferred: return "deferred";
    case Admission::kRejected: return "rejected";
  }
  return "?";
}

Service::Service(const ServiceOptions& options) : options_(options) {
  options_.workers = std::max(1, options_.workers);
  options_.batch_size = std::max(1, options_.batch_size);
  options_.watermark_low = online::effective_watermark_low(
      options_.watermark_high, options_.watermark_low);
  worker_metrics_.resize(static_cast<std::size_t>(options_.workers));
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_main(w); });
  }
}

Service::~Service() { drain(); }

Service::Ticket Service::submit(Request request, int /*unused*/) {
  auto* pending = new PendingRequest(std::move(request));
  pending->submit_time = Clock::now();

  Ticket ticket;
  ticket.response = pending->promise.get_future();

  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    pending->id = next_id_++;
    ticket.id = pending->id;
    ++acct_.submitted;
    TenantCounters& tenant = tenant_counts_[pending->request.tenant];
    ++tenant.submitted;
    if (draining_) {
      ticket.admission = Admission::kRejected;
    } else if (options_.watermark_high > 0) {
      if (!shedding_ && queue_.size() >= options_.watermark_high) {
        shedding_ = true;
        ++acct_.shed_mode_changes;
      }
      ticket.admission =
          !shedding_ ? Admission::kAccepted
          : options_.shed_policy == online::ShedPolicy::kReject
              ? Admission::kRejected
              : Admission::kDeferred;
    }
    switch (ticket.admission) {
      case Admission::kRejected:
        ++acct_.rejected;
        ++tenant.rejected;
        break;
      case Admission::kDeferred:
        ++acct_.accepted;
        ++acct_.in_flight;
        ++acct_.deferred;
        ++tenant.accepted;
        ++tenant.deferred;
        parked_.push_back(pending);
        break;
      case Admission::kAccepted:
        ++acct_.accepted;
        ++acct_.in_flight;
        ++tenant.accepted;
        queue_.push_back(pending);
        break;
    }
  }

  switch (ticket.admission) {
    case Admission::kRejected: reject_request(pending); break;
    case Admission::kAccepted: work_ready_.notify_one(); break;
    case Admission::kDeferred: break;
  }
  return ticket;
}

void Service::reject_request(PendingRequest* pending) {
  Response response;
  response.id = pending->id;
  response.tenant = pending->request.tenant;
  response.status = ResponseStatus::kRejected;
  response.latency_seconds =
      std::chrono::duration<double>(Clock::now() - pending->submit_time)
          .count();
  pending->promise.set_value(std::move(response));
  delete pending;
}

void Service::finish_request(PendingRequest* pending, int worker_index) {
  Response response = execute_request(pending->request);
  response.id = pending->id;
  response.served_by = worker_index;
  response.latency_seconds =
      std::chrono::duration<double>(Clock::now() - pending->submit_time)
          .count();

  WorkerMetrics& wm = worker_metrics_[static_cast<std::size_t>(worker_index)];
  obs::MetricsRegistry& tm = wm.tenants[pending->request.tenant];
  tm.counter("serve_requests_completed") += 1.0;
  tm.counter("serve_tasks_scheduled") +=
      static_cast<double>(pending->request.graph.size());
  tm.histogram("serve_latency_seconds").record(response.latency_seconds);

  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    ++acct_.completed;
    --acct_.in_flight;
    ++tenant_counts_[pending->request.tenant].completed;
  }
  pending->promise.set_value(std::move(response));
  delete pending;
}

bool Service::update_shedding_locked() {
  if (options_.watermark_high > 0) {
    if (!shedding_ && queue_.size() >= options_.watermark_high) {
      shedding_ = true;
      ++acct_.shed_mode_changes;
    }
    if (shedding_ && queue_.size() <= options_.watermark_low) {
      shedding_ = false;
      ++acct_.shed_mode_changes;
    }
  }
  // Re-admit parked requests while below the high watermark. Once drain()
  // has started the park is always empty: it force-admits everything and
  // submit() parks nothing more.
  bool readmitted = false;
  while (!parked_.empty() && !shedding_ &&
         (options_.watermark_high == 0 ||
          queue_.size() < options_.watermark_high)) {
    queue_.push_back(parked_.front());
    parked_.pop_front();
    readmitted = true;
    if (options_.watermark_high > 0 &&
        queue_.size() >= options_.watermark_high) {
      shedding_ = true;
      ++acct_.shed_mode_changes;
    }
  }
  return readmitted;
}

void Service::worker_main(int worker_index) {
  WorkerMetrics& wm = worker_metrics_[static_cast<std::size_t>(worker_index)];
  double& batches = wm.own.counter("serve_batches");
  obs::Histogram& batch_sizes = wm.own.histogram("serve_batch_size");

  std::vector<PendingRequest*> batch;
  batch.reserve(static_cast<std::size_t>(options_.batch_size));
  for (;;) {
    batch.clear();
    bool readmitted = false;
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      work_ready_.wait(lock, [this] { return !queue_.empty() || draining_; });
      if (queue_.empty()) {
        assert(parked_.empty());
        return;  // draining, and nothing left to take
      }
      while (batch.size() < static_cast<std::size_t>(options_.batch_size) &&
             !queue_.empty()) {
        batch.push_back(queue_.front());
        queue_.pop_front();
      }
      // Shedding can only clear when the backlog falls, so a pop is the
      // only point after which the hysteresis needs another look.
      readmitted = update_shedding_locked();
    }
    if (readmitted) work_ready_.notify_all();
    batches += 1.0;
    batch_sizes.record(static_cast<double>(batch.size()));
    for (PendingRequest* p : batch) finish_request(p, worker_index);
  }
}

void Service::drain() {
  // Serializes concurrent drain() callers (the joins must run exactly
  // once); state_mutex_ stays the inner lock.
  const std::lock_guard<std::mutex> drain_lock(drain_mutex_);
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    if (draining_ && workers_.empty()) return;  // already drained
    draining_ = true;
    // Force-admit everything parked; the workers finish the rest.
    queue_.insert(queue_.end(), parked_.begin(), parked_.end());
    parked_.clear();
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  assert(accounting().balanced());
  assert(accounting().in_flight == 0);
}

bool Service::draining() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return draining_;
}

Service::Accounting Service::accounting() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  return acct_;
}

std::vector<int> Service::tenants() const {
  const std::lock_guard<std::mutex> lock(state_mutex_);
  std::vector<int> out;
  out.reserve(tenant_counts_.size());
  for (const auto& [tenant, counts] : tenant_counts_) out.push_back(tenant);
  return out;
}

obs::MetricsRegistry Service::tenant_metrics(int tenant) const {
  obs::MetricsRegistry merged;
  {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    const auto it = tenant_counts_.find(tenant);
    if (it != tenant_counts_.end()) {
      merged.counter("serve_requests_submitted") =
          static_cast<double>(it->second.submitted);
      merged.counter("serve_requests_accepted") =
          static_cast<double>(it->second.accepted);
      merged.counter("serve_requests_rejected") =
          static_cast<double>(it->second.rejected);
      merged.counter("serve_requests_deferred") =
          static_cast<double>(it->second.deferred);
    }
  }
  // Worker registries are single-writer and lock-free; exact only while
  // the workers are idle (see the header contract).
  for (const WorkerMetrics& wm : worker_metrics_) {
    const auto it = wm.tenants.find(tenant);
    if (it != wm.tenants.end()) merged.merge(it->second);
  }
  return merged;
}

}  // namespace hp::serve
