// Tests for serve/service: admission control, the zero-silent-drop
// accounting identity, per-tenant metrics isolation, graceful drain, and
// the determinism contract (a response is bitwise-identical to the direct
// engine call no matter which worker served it or what admission pressure
// looked like).
//
// ServeService.* runs in the `serve`-labeled aggregate, which the
// ThreadSanitizer CI job executes alongside `-L concurrency`.

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "model/generators.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace hp::serve {
namespace {

/// Independent uniform workload of `n` tasks, deterministic in `seed`.
Request make_request(std::size_t n, std::uint64_t seed,
                     Backend backend = Backend::kHp, int tenant = 0) {
  util::Rng rng(util::seed_from_cell({seed, static_cast<std::uint64_t>(n)}));
  UniformGenParams params;
  params.num_tasks = n;
  const Instance inst = uniform_instance(params, rng);
  Request request;
  request.tenant = tenant;
  request.backend = backend;
  request.platform = Platform(2, 1);
  TaskGraph graph("unit-" + std::to_string(seed));
  for (const Task& t : inst.tasks()) {
    Task task = t;
    task.priority = rng.uniform(0.0, 16.0);
    graph.add_task(task);
  }
  graph.finalize();
  request.graph = std::move(graph);
  return request;
}

TEST(ServeService, SingleRequestMatchesDirectRunBitwise) {
  for (const Backend backend :
       {Backend::kHp, Backend::kHpNoSpol, Backend::kHeft, Backend::kDualHp}) {
    const Request original = make_request(30, 7, backend);
    const Response direct = execute_request(original);

    ServiceOptions options;
    options.workers = 1;
    Service service(options);
    Service::Ticket ticket = service.submit(Request(original));
    EXPECT_EQ(ticket.admission, Admission::kAccepted);
    const Response response = ticket.response.get();
    EXPECT_EQ(response.status, ResponseStatus::kCompleted);
    EXPECT_EQ(response.id, ticket.id);
    std::string why;
    EXPECT_TRUE(identical_schedules(response.schedule, direct.schedule, &why))
        << scheduler_name(backend) << ": " << why;
    EXPECT_EQ(response.makespan, direct.makespan);
    service.drain();
    const Service::Accounting acct = service.accounting();
    EXPECT_TRUE(acct.balanced());
    EXPECT_EQ(acct.completed, 1u);
    EXPECT_EQ(acct.in_flight, 0u);
  }
}

TEST(ServeService, AccountingBalancesAtEveryObservationPoint) {
  ServiceOptions options;
  options.workers = 2;
  Service service(options);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 24; ++i) {
    Service::Ticket ticket =
        service.submit(make_request(20, static_cast<std::uint64_t>(i)));
    futures.push_back(std::move(ticket.response));
    // The identity holds mid-stream, not just at quiescence.
    EXPECT_TRUE(service.accounting().balanced()) << "after submission " << i;
  }
  for (std::future<Response>& f : futures) {
    EXPECT_EQ(f.get().status, ResponseStatus::kCompleted);
    EXPECT_TRUE(service.accounting().balanced());
  }
  service.drain();
  const Service::Accounting acct = service.accounting();
  EXPECT_TRUE(acct.balanced());
  EXPECT_EQ(acct.submitted, 24u);
  EXPECT_EQ(acct.completed, 24u);
  EXPECT_EQ(acct.rejected, 0u);
  EXPECT_EQ(acct.in_flight, 0u);
}

// Pin the single worker under a long request, then burst past the high
// watermark: with the reject policy every overflow submission must come
// back answered (kRejected), never dropped.
TEST(ServeService, RejectPolicyAnswersEveryShedRequest) {
  ServiceOptions options;
  options.workers = 1;
  options.watermark_high = 2;
  options.shed_policy = online::ShedPolicy::kReject;
  Service service(options);

  Service::Ticket big = service.submit(make_request(60000, 1));
  std::vector<Service::Ticket> burst;
  for (int i = 0; i < 12; ++i) {
    burst.push_back(
        service.submit(make_request(10, static_cast<std::uint64_t>(i))));
  }
  int rejected_tickets = 0;
  int rejected_responses = 0;
  for (Service::Ticket& t : burst) {
    if (t.admission == Admission::kRejected) ++rejected_tickets;
    const Response r = t.response.get();
    if (r.status == ResponseStatus::kRejected) ++rejected_responses;
  }
  EXPECT_EQ(big.response.get().status, ResponseStatus::kCompleted);
  service.drain();
  EXPECT_EQ(rejected_tickets, rejected_responses)
      << "a shed request was not answered as rejected";
  EXPECT_GT(rejected_tickets, 0)
      << "the watermark never tripped under a pinned worker";
  const Service::Accounting acct = service.accounting();
  EXPECT_TRUE(acct.balanced());
  EXPECT_EQ(acct.submitted, 13u);
  EXPECT_EQ(acct.completed + acct.rejected, 13u);
  EXPECT_GE(acct.shed_mode_changes, 1u);
}

// Same pressure under the defer policy: overflow parks instead of failing,
// and drain() force-admits the park — everything completes, nothing is
// rejected or lost.
TEST(ServeService, DeferPolicyCompletesEverything) {
  ServiceOptions options;
  options.workers = 1;
  options.watermark_high = 2;
  options.shed_policy = online::ShedPolicy::kDefer;
  Service service(options);

  std::vector<Service::Ticket> tickets;
  tickets.push_back(service.submit(make_request(60000, 1)));
  for (int i = 0; i < 12; ++i) {
    tickets.push_back(
        service.submit(make_request(10, static_cast<std::uint64_t>(i))));
  }
  int deferred = 0;
  for (const Service::Ticket& t : tickets) {
    EXPECT_NE(t.admission, Admission::kRejected);
    if (t.admission == Admission::kDeferred) ++deferred;
  }
  for (Service::Ticket& t : tickets) {
    EXPECT_EQ(t.response.get().status, ResponseStatus::kCompleted);
  }
  service.drain();
  const Service::Accounting acct = service.accounting();
  EXPECT_TRUE(acct.balanced());
  EXPECT_EQ(acct.completed, 13u);
  EXPECT_EQ(acct.rejected, 0u);
  EXPECT_GT(deferred, 0) << "the watermark never tripped";
  EXPECT_EQ(acct.deferred, static_cast<std::uint64_t>(deferred));
}

TEST(ServeService, TenantMetricsIsolateTraffic) {
  ServiceOptions options;
  options.workers = 2;
  Service service(options);
  std::vector<std::future<Response>> futures;
  const int per_tenant[] = {5, 3, 0, 7};
  for (int tenant = 0; tenant < 4; ++tenant) {
    for (int i = 0; i < per_tenant[tenant]; ++i) {
      futures.push_back(
          service
              .submit(make_request(15, static_cast<std::uint64_t>(i),
                                   Backend::kHp, tenant))
              .response);
    }
  }
  for (std::future<Response>& f : futures) f.get();
  service.drain();

  EXPECT_EQ(service.tenants(), (std::vector<int>{0, 1, 3}));
  for (const int tenant : {0, 1, 3}) {
    const obs::MetricsRegistry metrics = service.tenant_metrics(tenant);
    const std::uint64_t want =
        static_cast<std::uint64_t>(per_tenant[tenant]);
    const double* submitted = metrics.find_counter("serve_requests_submitted");
    const double* completed = metrics.find_counter("serve_requests_completed");
    ASSERT_NE(submitted, nullptr);
    ASSERT_NE(completed, nullptr);
    EXPECT_EQ(static_cast<std::uint64_t>(*submitted), want) << tenant;
    EXPECT_EQ(static_cast<std::uint64_t>(*completed), want) << tenant;
    const obs::Histogram* latency =
        metrics.find_histogram("serve_latency_seconds");
    ASSERT_NE(latency, nullptr) << tenant;
    EXPECT_EQ(latency->count(), want) << tenant;
    EXPECT_GT(latency->min(), 0.0) << tenant;
  }
}

TEST(ServeService, SubmitAfterDrainIsRejectedNotDropped) {
  Service service(ServiceOptions{.workers = 1});
  service.drain();
  EXPECT_TRUE(service.draining());
  Service::Ticket ticket = service.submit(make_request(10, 3));
  EXPECT_EQ(ticket.admission, Admission::kRejected);
  EXPECT_EQ(ticket.response.get().status, ResponseStatus::kRejected);
  EXPECT_TRUE(service.accounting().balanced());
}

TEST(ServeService, DrainIsIdempotentAndDestructorSafe) {
  ServiceOptions options;
  options.workers = 2;
  auto service = std::make_unique<Service>(options);
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(
        service->submit(make_request(12, static_cast<std::uint64_t>(i)))
            .response);
  }
  service->drain();
  service->drain();  // second call is a no-op
  for (std::future<Response>& f : futures) {
    EXPECT_EQ(f.get().status, ResponseStatus::kCompleted);
  }
  EXPECT_EQ(service->accounting().in_flight, 0u);
  service.reset();  // ~Service after an explicit drain
}

TEST(ServeService, DestructorDrainsOutstandingWork) {
  std::vector<std::future<Response>> futures;
  {
    ServiceOptions options;
    options.workers = 2;
    Service service(options);
    for (int i = 0; i < 10; ++i) {
      futures.push_back(
          service.submit(make_request(12, static_cast<std::uint64_t>(i)))
              .response);
    }
    // No drain(): the destructor owes every future an answer.
  }
  for (std::future<Response>& f : futures) {
    EXPECT_EQ(f.get().status, ResponseStatus::kCompleted);
  }
}

// Wake-up and drain races: client threads submit while drain() runs. Every
// ticket must resolve (completed, or rejected once intake has stopped), the
// identity must hold, nothing may stay in flight, and intake stays closed.
// Repeated under ThreadSanitizer (--gtest_repeat) to shake out lost
// wake-ups between submit()'s notify and idle workers.
void submit_while_draining(const ServiceOptions& options) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 40;
  Service service(options);
  std::vector<std::vector<Service::Ticket>> tickets(kClients);
  std::atomic<int> started{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      started.fetch_add(1);
      for (int i = 0; i < kPerClient; ++i) {
        tickets[static_cast<std::size_t>(c)].push_back(service.submit(
            make_request(8, static_cast<std::uint64_t>(c * kPerClient + i),
                         Backend::kHp, c)));
      }
    });
  }
  while (started.load() < kClients) std::this_thread::yield();
  service.drain();
  for (std::thread& t : clients) t.join();

  std::uint64_t completed = 0;
  std::uint64_t rejected = 0;
  for (std::vector<Service::Ticket>& per_client : tickets) {
    for (Service::Ticket& t : per_client) {
      const Response r = t.response.get();
      EXPECT_EQ(r.id, t.id);
      if (r.status == ResponseStatus::kCompleted) {
        ++completed;
        EXPECT_NE(t.admission, Admission::kRejected);
      } else {
        ++rejected;
        EXPECT_EQ(t.admission, Admission::kRejected);
      }
    }
  }
  const Service::Accounting acct = service.accounting();
  EXPECT_TRUE(acct.balanced());
  EXPECT_EQ(acct.in_flight, 0u);
  EXPECT_EQ(acct.submitted, std::uint64_t{kClients * kPerClient});
  EXPECT_EQ(acct.completed, completed);
  EXPECT_EQ(acct.rejected, rejected);

  Service::Ticket late = service.submit(make_request(8, 1));
  EXPECT_EQ(late.admission, Admission::kRejected);
  EXPECT_EQ(late.response.get().status, ResponseStatus::kRejected);
  EXPECT_TRUE(service.accounting().balanced());
}

TEST(ServeService, SubmitRacingDrainResolvesEveryTicket) {
  submit_while_draining(ServiceOptions{.workers = 2});
}

TEST(ServeService, SubmitRacingDrainUnderDeferResolvesEveryTicket) {
  submit_while_draining(ServiceOptions{
      .workers = 2, .batch_size = 2, .watermark_high = 2});
}

// Four clients against a shallow deferring watermark and two workers, no
// drain until every ticket has resolved: the parked requests can only
// complete through the workers' own re-admissions. Each client opens with a
// large request so the workers are busy while the rest of the burst
// arrives.
TEST(ServeService, DeferredRequestsAreReadmittedByTheWorkers) {
  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  Service service(ServiceOptions{.workers = 2, .watermark_high = 2});
  std::vector<std::vector<Service::Ticket>> tickets(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        tickets[static_cast<std::size_t>(c)].push_back(service.submit(
            make_request(i == 0 ? 20000 : 30,
                         static_cast<std::uint64_t>(c * kPerClient + i),
                         Backend::kHp, c)));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::uint64_t deferred = 0;
  for (std::vector<Service::Ticket>& per_client : tickets) {
    for (Service::Ticket& t : per_client) {
      EXPECT_NE(t.admission, Admission::kRejected);
      deferred += t.admission == Admission::kDeferred ? 1 : 0;
      EXPECT_EQ(t.response.get().status, ResponseStatus::kCompleted);
    }
  }
  EXPECT_GT(deferred, 0u) << "the watermark never tripped";
  Service::Accounting acct = service.accounting();
  EXPECT_TRUE(acct.balanced());
  EXPECT_EQ(acct.in_flight, 0u);
  EXPECT_EQ(acct.completed, std::uint64_t{kClients * kPerClient});
  EXPECT_EQ(acct.deferred, deferred);
  service.drain();
  acct = service.accounting();
  EXPECT_TRUE(acct.balanced());
  EXPECT_EQ(acct.completed, std::uint64_t{kClients * kPerClient});
}

}  // namespace
}  // namespace hp::serve
