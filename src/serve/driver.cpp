#include "serve/driver.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>

namespace hp::serve {

namespace {

using Clock = std::chrono::steady_clock;

struct ClientOutcome {
  std::vector<std::uint64_t> ticket_ids;
  std::vector<Admission> admissions;
  std::vector<Response> responses;
};

}  // namespace

DriverReport run_driver(const RequestFactory& make_request,
                        const DriverOptions& options) {
  DriverReport report;
  const int clients = std::max(1, options.clients);
  const int per_client = std::max(0, options.requests_per_client);

  // Pre-generate outside the timed region; keep the originals for the
  // differential.
  std::vector<std::vector<Request>> workloads(
      static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workloads[static_cast<std::size_t>(c)].reserve(
        static_cast<std::size_t>(per_client));
    for (int i = 0; i < per_client; ++i) {
      workloads[static_cast<std::size_t>(c)].push_back(make_request(c, i));
    }
  }

  Service service(options.service);

  std::vector<ClientOutcome> outcomes(static_cast<std::size_t>(clients));
  const auto started = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientOutcome& outcome = outcomes[static_cast<std::size_t>(c)];
        std::vector<std::future<Response>> futures;
        futures.reserve(static_cast<std::size_t>(per_client));
        for (int i = 0; i < per_client; ++i) {
          const Request& original =
              workloads[static_cast<std::size_t>(c)][
                  static_cast<std::size_t>(i)];
          // Submit a copy when verifying (the original is re-run later);
          // move otherwise.
          Service::Ticket ticket =
              options.verify ? service.submit(Request(original))
                             : service.submit(std::move(
                                   workloads[static_cast<std::size_t>(c)]
                                            [static_cast<std::size_t>(i)]));
          outcome.ticket_ids.push_back(ticket.id);
          outcome.admissions.push_back(ticket.admission);
          futures.push_back(std::move(ticket.response));
        }
        outcome.responses.reserve(futures.size());
        for (std::future<Response>& f : futures) {
          outcome.responses.push_back(f.get());
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - started).count();
  service.drain();

  report.accounting = service.accounting();
  report.balanced = report.accounting.balanced();
  const auto note = [&](const std::string& why) {
    if (report.first_error.empty()) report.first_error = why;
  };
  if (!report.balanced) note("accounting identity does not balance");

  // Pairing + (optionally) the bitwise differential.
  report.paired = true;
  report.verified = true;
  std::vector<std::uint64_t> all_ids;
  for (int c = 0; c < clients; ++c) {
    const ClientOutcome& outcome = outcomes[static_cast<std::size_t>(c)];
    report.responses += outcome.responses.size();
    for (int i = 0; i < per_client; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      const Response& response = outcome.responses[idx];
      const Request& original =
          workloads[static_cast<std::size_t>(c)][idx];
      all_ids.push_back(response.id);
      if (response.id != outcome.ticket_ids[idx]) {
        report.paired = false;
        note("client " + std::to_string(c) + " request " +
             std::to_string(i) + ": response id does not match its ticket");
      }
      if (options.verify && response.tenant != original.tenant) {
        report.paired = false;
        note("client " + std::to_string(c) + " request " +
             std::to_string(i) + ": response tenant " +
             std::to_string(response.tenant) + " != " +
             std::to_string(original.tenant));
      }
      const bool rejected_ticket =
          outcome.admissions[idx] == Admission::kRejected;
      if (rejected_ticket !=
          (response.status == ResponseStatus::kRejected)) {
        report.paired = false;
        note("client " + std::to_string(c) + " request " +
             std::to_string(i) + ": admission and response status disagree");
      }
      if (options.verify &&
          response.status == ResponseStatus::kCompleted) {
        const Response direct = execute_request(original);
        std::string why;
        if (!identical_schedules(response.schedule, direct.schedule, &why)) {
          report.verified = false;
          note("client " + std::to_string(c) + " request " +
               std::to_string(i) +
               ": service schedule diverges from direct run: " + why);
        } else if (!(response.recovery == direct.recovery)) {
          report.verified = false;
          note("client " + std::to_string(c) + " request " +
               std::to_string(i) +
               ": service recovery report diverges from direct run");
        }
      }
    }
  }
  std::sort(all_ids.begin(), all_ids.end());
  if (std::adjacent_find(all_ids.begin(), all_ids.end()) != all_ids.end()) {
    report.paired = false;
    note("duplicate response id: a request was double-served");
  }
  if (report.responses != report.accounting.submitted) {
    report.balanced = false;
    note("resolved " + std::to_string(report.responses) +
         " responses for " + std::to_string(report.accounting.submitted) +
         " submissions");
  }

  // Latency quantiles from the merged per-tenant histograms.
  obs::Histogram all_latency;
  for (const int tenant : service.tenants()) {
    const obs::MetricsRegistry metrics = service.tenant_metrics(tenant);
    DriverTenantReport tr;
    tr.tenant = tenant;
    const auto counter = [&](const char* name) {
      const double* v = metrics.find_counter(name);
      return v != nullptr ? static_cast<std::uint64_t>(*v) : 0;
    };
    tr.submitted = counter("serve_requests_submitted");
    tr.completed = counter("serve_requests_completed");
    tr.rejected = counter("serve_requests_rejected");
    tr.deferred = counter("serve_requests_deferred");
    if (const obs::Histogram* h =
            metrics.find_histogram("serve_latency_seconds")) {
      tr.mean_latency_seconds = h->mean();
      tr.p50_latency_seconds = h->quantile(0.50);
      tr.p99_latency_seconds = h->quantile(0.99);
      all_latency.merge(*h);
    }
    report.tenants.push_back(tr);
  }
  report.p50_latency_seconds = all_latency.quantile(0.50);
  report.p99_latency_seconds = all_latency.quantile(0.99);
  report.requests_per_sec =
      report.wall_seconds > 0.0
          ? static_cast<double>(report.accounting.completed) /
                report.wall_seconds
          : 0.0;
  return report;
}

}  // namespace hp::serve
