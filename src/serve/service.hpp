#pragma once
// Long-running multi-tenant scheduling service over the engines.
//
// Clients submit Requests from their own threads; a pool of service workers
// takes them in batches from a FIFO under the one state lock submit()
// already holds for admission, sleeping on a condition variable while it is
// empty, and answers each request through a future. Three layers sit
// between submit() and the engine:
//
//  * Admission control with the high/low-watermark hysteresis of the online
//    runtime (src/online): once the queued backlog reaches watermark_high
//    the service sheds — deferring (FIFO park, re-admitted when the backlog
//    drains to watermark_low) or rejecting (answered with kRejected) per
//    ShedPolicy — and stops shedding only at the low watermark. Shed
//    requests are counted and answered, never silently dropped.
//  * The zero-silent-drop accounting identity, maintained under one lock
//    and exposed by accounting(): submitted == accepted + rejected and
//    accepted == completed + in_flight, at every instant. Tests, the CLI
//    driver and the fuzz oracle's `serve` property all assert balanced().
//  * Per-tenant isolation: counters and an enqueue-to-response latency
//    histogram per (worker, tenant) — single-writer obs::MetricsRegistry
//    instances merged on demand — so one tenant's traffic is attributable
//    independently of the others'.
//
// Determinism contract: workers run serve::execute_request, a pure function
// of the request, so the schedule a client receives is bitwise-identical to
// a direct engine call no matter which worker served it, how requests were
// batched, or what admission pressure looked like. Graceful drain: drain()
// stops intake, force-admits every parked request, and joins the workers
// only after the queue is empty — nothing is lost or double-served.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "online/runtime.hpp"
#include "serve/request.hpp"

namespace hp::serve {

struct PendingRequest;

/// What admission control decided for one submission.
enum class Admission : std::uint8_t { kAccepted = 0, kDeferred, kRejected };

[[nodiscard]] const char* admission_name(Admission admission) noexcept;

struct ServiceOptions {
  int workers = 2;     ///< service worker threads draining the queue
  /// Read by nothing. Kept only so the frozen benchmark (hpbench/) still
  /// compiles; remove it with the next benchmark change.
  int max_clients = 8;
  int batch_size = 8;  ///< requests a worker claims per wakeup
  /// Admission hysteresis on the queued backlog: shedding starts at
  /// watermark_high and clears at watermark_low (default high / 2, clamped
  /// below high by online::effective_watermark_low). 0 disables admission
  /// control entirely.
  std::size_t watermark_high = 0;
  std::size_t watermark_low = 0;
  online::ShedPolicy shed_policy = online::ShedPolicy::kDefer;
};

class Service {
 public:
  explicit Service(const ServiceOptions& options = {});
  ~Service();  ///< drains if the caller has not

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  struct Ticket {
    Admission admission = Admission::kAccepted;
    std::uint64_t id = 0;  ///< matches Response::id
    /// Always valid; rejected submissions resolve immediately with
    /// ResponseStatus::kRejected.
    std::future<Response> response;
  };

  /// Submit from any thread. The int argument is ignored; it stays only so
  /// the frozen benchmark (hpbench/) still compiles — remove it with the
  /// next benchmark change.
  [[nodiscard]] Ticket submit(Request request, int /*unused*/ = 0);

  /// Stop intake, force-admit every deferred request, finish everything in
  /// custody and join the workers. Idempotent. After drain() the accounting
  /// shows in_flight == 0 and submit() rejects.
  void drain();

  [[nodiscard]] bool draining() const;

  /// Zero-silent-drop snapshot; balanced() holds at every instant.
  struct Accounting {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;   ///< taken into custody (deferred included)
    std::uint64_t rejected = 0;   ///< answered kRejected (shed or drain)
    std::uint64_t deferred = 0;   ///< park events (subset of accepted)
    std::uint64_t completed = 0;
    std::uint64_t in_flight = 0;  ///< accepted - completed
    std::uint64_t shed_mode_changes = 0;  ///< hysteresis transitions

    [[nodiscard]] bool balanced() const noexcept {
      return submitted == accepted + rejected &&
             accepted == completed + in_flight;
    }
  };
  [[nodiscard]] Accounting accounting() const;

  /// Tenants that ever submitted, ascending.
  [[nodiscard]] std::vector<int> tenants() const;

  /// Merged metrics of one tenant: per-worker completion counters and the
  /// serve_latency_seconds histogram, plus the submit-side admission
  /// counters. Exact only while the service is quiescent — call after
  /// drain() (workers write their registries without locks while running).
  [[nodiscard]] obs::MetricsRegistry tenant_metrics(int tenant) const;

  /// Always 0: the intake has no segments. Kept only because the frozen
  /// benchmark (hpbench/) reports them; remove with the next benchmark
  /// change.
  [[nodiscard]] std::size_t queue_segments_allocated() const noexcept {
    return 0;
  }
  [[nodiscard]] std::size_t queue_segments_recycled() const noexcept {
    return 0;
  }

 private:
  struct TenantCounters {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t deferred = 0;
    std::uint64_t completed = 0;
  };

  /// Per-worker metrics, written lock-free by the owning worker.
  struct WorkerMetrics {
    obs::MetricsRegistry own;                   ///< batches, pops
    std::map<int, obs::MetricsRegistry> tenants;  ///< per-tenant series
  };

  void worker_main(int worker_index);
  /// Re-evaluate the hysteresis and re-admit parked requests while below
  /// the high watermark. Caller holds state_mutex_. Returns whether any
  /// parked request was re-admitted.
  bool update_shedding_locked();
  void finish_request(PendingRequest* pending, int worker_index);
  void reject_request(PendingRequest* pending);

  ServiceOptions options_;

  std::mutex drain_mutex_;  ///< serializes drain() callers; outer lock
  mutable std::mutex state_mutex_;
  /// Signalled (after unlocking) when queue_ gains work or drain starts;
  /// idle workers wait on it under state_mutex_.
  std::condition_variable work_ready_;
  Accounting acct_;
  std::map<int, TenantCounters> tenant_counts_;
  /// Admitted requests not yet taken by a worker, FIFO. Its size is the
  /// backlog the watermarks compare against.
  std::deque<PendingRequest*> queue_;
  std::deque<PendingRequest*> parked_;  ///< deferred, FIFO
  bool shedding_ = false;
  bool draining_ = false;
  std::uint64_t next_id_ = 1;

  std::vector<WorkerMetrics> worker_metrics_;
  std::vector<std::thread> workers_;
};

}  // namespace hp::serve
