#include "fuzz/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "baselines/heft.hpp"
#include "baselines/heft_ref.hpp"
#include "bounds/area_bound.hpp"
#include "bounds/dag_lower_bound.hpp"
#include "bounds/exact_opt.hpp"
#include "core/heteroprio_ref.hpp"
#include "obs/recorder.hpp"
#include "obs/watchdog.hpp"
#include "online/runtime.hpp"
#include "runtime/dispatch.hpp"
#include "sched/validate.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace hp::fuzz {

namespace {

struct PropEntry {
  unsigned bit;
  const char* name;
};

constexpr PropEntry kProps[] = {
    {kPropValidity, "validity"},     {kPropLowerBound, "lower-bound"},
    {kPropRatio, "ratio"},           {kPropExact, "exact"},
    {kPropRefDiff, "ref-diff"},      {kPropScale, "scale"},
    {kPropPermute, "permute"},       {kPropSpareCrash, "spare-crash"},
    {kPropFaultAccount, "fault-account"}, {kPropOnline, "online"},
    {kPropServe, "serve"},
};

/// One scheduler run of a case: schedule, recovery outcome, event stream.
struct RunOutput {
  Schedule schedule;
  fault::RecoveryReport recovery;
  obs::EventRecorder events;
};

/// The run every property judges: the shared dispatch, as the service runs
/// it, with the fault plan passed only when it is non-empty.
void run_case(const FuzzCase& c, SchedulerId sched, RunOutput* out) {
  RunResult run = run_scheduler(
      sched, c.graph, c.platform,
      {.rank = c.rank,
       .faults = c.has_faults() ? &c.faults : nullptr,
       .sink = &out->events});
  out->schedule = std::move(run.schedule);
  out->recovery = run.stats.recovery;
}

serve::Request serve_request(const FuzzCase& c, SchedulerId sched,
                             int tenant) {
  serve::Request request;
  request.tenant = tenant;
  request.backend = sched;
  request.graph = c.graph;
  request.rank = c.rank;
  request.platform = c.platform;
  request.faults = c.faults;
  return request;
}

std::string fmt(double value) {
  std::ostringstream oss;
  oss.precision(17);
  oss << value;
  return oss.str();
}

/// Copy of `c` with every duration (and priority — bottom levels scale with
/// durations) multiplied by `factor`. Powers of two keep the arithmetic
/// exact, which is what makes the scale property a bitwise assertion.
FuzzCase scaled_case(const FuzzCase& c, double factor) {
  FuzzCase s;
  s.name = c.name + "-scaled";
  s.seed = c.seed;
  s.platform = c.platform;
  s.rank = c.rank;
  TaskGraph graph(s.name);
  for (const Task& t : c.graph.tasks()) {
    Task task = t;
    task.cpu_time *= factor;
    task.gpu_time *= factor;
    task.priority *= factor;
    graph.add_task(task);
  }
  for (std::size_t i = 0; i < c.graph.size(); ++i) {
    for (TaskId succ : c.graph.successors(static_cast<TaskId>(i))) {
      graph.add_edge(static_cast<TaskId>(i), succ);
    }
  }
  graph.finalize();
  s.graph = std::move(graph);
  return s;
}

/// Copy of `c` (independent only) with the task order reversed.
FuzzCase reversed_case(const FuzzCase& c) {
  FuzzCase r;
  r.name = c.name + "-reversed";
  r.seed = c.seed;
  r.platform = c.platform;
  r.rank = c.rank;
  TaskGraph graph(r.name);
  const auto tasks = c.graph.tasks();
  for (std::size_t i = tasks.size(); i-- > 0;) graph.add_task(tasks[i]);
  graph.finalize();
  r.graph = std::move(graph);
  return r;
}

/// Pairwise-distinct values (up to a small relative gap).
bool all_distinct(std::vector<double> keys) {
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 1; i < keys.size(); ++i) {
    const double gap = keys[i] - keys[i - 1];
    if (gap <= 1e-12 * std::max(1.0, std::abs(keys[i]))) return false;
  }
  return true;
}

/// Tie-free ordering keys for `sched`: only then is the dispatch order
/// independent of task ids, the precondition of the permutation property.
/// Each scheduler sorts by a different key — HeteroPrio's ready queue by
/// acceleration factor, HEFT by rank weight, DualHP by acceleration factor
/// in the dual-approximation split *and* by priority in the per-resource
/// dispatch, so it needs both tie-free.
bool keys_distinct(const FuzzCase& c, SchedulerId sched) {
  const std::span<const Task> tasks = c.graph.tasks();
  std::vector<double> keys;
  keys.reserve(tasks.size());
  switch (sched) {
    case SchedulerId::kHp:
    case SchedulerId::kHpNoSpol:
      for (const Task& t : tasks) keys.push_back(t.accel());
      return all_distinct(std::move(keys));
    case SchedulerId::kHeft:
      for (const Task& t : tasks) {
        keys.push_back(rank_weight(t, heft_rank(c.rank)));
      }
      return all_distinct(std::move(keys));
    case SchedulerId::kDualHp: {
      if (c.rank == RankScheme::kFifo) return false;  // order by design
      for (const Task& t : tasks) keys.push_back(t.accel());
      if (!all_distinct(keys)) return false;
      keys.clear();
      for (const Task& t : tasks) keys.push_back(t.priority);
      return all_distinct(std::move(keys));
    }
  }
  return false;
}

}  // namespace

const char* property_name(unsigned bit) noexcept {
  for (const PropEntry& p : kProps) {
    if (p.bit == bit) return p.name;
  }
  return "?";
}

bool parse_props(const std::string& text, unsigned* out, std::string* error) {
  if (text.empty() || text == "all") {
    *out = kPropAll;
    return true;
  }
  unsigned props = 0;
  std::istringstream iss(text);
  std::string token;
  while (std::getline(iss, token, ',')) {
    if (token.empty()) continue;
    bool found = false;
    for (const PropEntry& p : kProps) {
      if (token == p.name) {
        props |= p.bit;
        found = true;
        break;
      }
    }
    if (!found) {
      if (error != nullptr) *error = "unknown property '" + token + "'";
      return false;
    }
  }
  *out = props;
  return true;
}

std::string props_to_string(unsigned props) {
  if ((props & kPropAll) == kPropAll) return "all";
  std::string out;
  for (const PropEntry& p : kProps) {
    if ((props & p.bit) == 0) continue;
    if (!out.empty()) out += ',';
    out += p.name;
  }
  return out;
}

OracleVerdict check_case(const FuzzCase& c, SchedulerId sched,
                         const OracleOptions& options) {
  OracleVerdict verdict;
  const auto fail = [&](const char* property, std::string detail) {
    verdict.failures.push_back(
        PropertyFailure{property, scheduler_name(sched), std::move(detail)});
  };

  RunOutput run;
  run_case(c, sched, &run);
  const bool faulty = c.has_faults();
  const bool engine = sched == SchedulerId::kHp ||
                      sched == SchedulerId::kHpNoSpol;
  const std::span<const Task> tasks = c.graph.tasks();
  const double makespan = run.schedule.makespan();
  verdict.makespan = makespan;

  const double lb = c.is_dag()
                        ? dag_lower_bound(c.graph, c.platform).value()
                        : opt_lower_bound(tasks, c.platform);

  if (options.props & kPropValidity) {
    ++verdict.properties_checked;
    ScheduleCheckOptions sc;
    sc.tol = options.tol;
    if (faulty) {
      sc.require_complete = false;
      sc.exact_durations = false;
    }
    const ScheduleCheck check =
        c.is_dag() ? check_schedule(run.schedule, c.graph, c.platform, sc)
                   : check_schedule(run.schedule, tasks, c.platform, sc);
    if (!check.ok) fail("validity", check.message);
  }

  if ((options.props & kPropLowerBound) && run.schedule.complete()) {
    ++verdict.properties_checked;
    if (makespan < lb - options.tol * std::max(1.0, lb)) {
      fail("lower-bound",
           "makespan " + fmt(makespan) + " below lower bound " + fmt(lb));
    }
  }

  if ((options.props & kPropRatio) && sched == SchedulerId::kHp && !faulty &&
      !c.is_dag() && !tasks.empty()) {
    ++verdict.properties_checked;
    const obs::BoundCheck bc =
        obs::check_makespan_bound(makespan, lb, c.platform, {});
    if (bc.violated) fail("ratio", obs::describe(bc));
  }

  if ((options.props & kPropExact) && !c.is_dag() && !faulty &&
      !tasks.empty() &&
      tasks.size() <= static_cast<std::size_t>(options.exact_max_tasks) &&
      c.platform.workers() <= options.exact_max_workers) {
    ++verdict.properties_checked;
    const double opt = exact_optimal_makespan(tasks, c.platform);
    if (makespan < opt - options.tol * std::max(1.0, opt)) {
      fail("exact", "makespan " + fmt(makespan) + " beats the exact optimum " +
                        fmt(opt));
    }
    if (opt < lb - options.tol * std::max(1.0, lb)) {
      fail("exact", "exact optimum " + fmt(opt) +
                        " below the area lower bound " + fmt(lb));
    }
    if (sched == SchedulerId::kHp) {
      const double bound = obs::proven_bound(c.platform);
      if (std::isfinite(bound) && makespan > bound * opt * (1.0 + 1e-6)) {
        fail("exact", "makespan " + fmt(makespan) + " above " + fmt(bound) +
                          " x OPT = " + fmt(bound * opt));
      }
    }
  }

  if (options.props & kPropRefDiff) {
    // Fault-free only: the reference engines predate fault injection and
    // ignore HeteroPrioOptions::faults.
    if (engine && !faulty) {
      ++verdict.properties_checked;
      HeteroPrioOptions o;
      o.enable_spoliation = spoliates(sched);
      const Schedule ref =
          c.is_dag()
              ? heteroprio_dag_reference(c.graph, c.platform, o)
              : heteroprio_reference(tasks, c.platform, o);
      std::string why;
      if (!identical_schedules(run.schedule, ref, &why)) {
        fail("ref-diff", "diverges from heteroprio_reference: " + why);
      }
    } else if (sched == SchedulerId::kHeft && !faulty) {
      ++verdict.properties_checked;
      const HeftOptions o{.rank = heft_rank(c.rank)};
      const Schedule ref = c.is_dag()
                               ? heft_ref(c.graph, c.platform, o)
                               : heft_independent_ref(tasks, c.platform, o);
      std::string why;
      if (!identical_schedules(run.schedule, ref, &why)) {
        fail("ref-diff", "diverges from heft_ref: " + why);
      }
    }
  }

  if ((options.props & kPropScale) && !faulty && !tasks.empty()) {
    ++verdict.properties_checked;
    RunOutput scaled;
    run_case(scaled_case(c, 2.0), sched, &scaled);
    if (scaled.schedule.makespan() != 2.0 * makespan) {
      fail("scale", "doubling durations gives makespan " +
                        fmt(scaled.schedule.makespan()) + ", expected " +
                        fmt(2.0 * makespan));
    }
  }

  if ((options.props & kPropPermute) && !faulty && !c.is_dag() &&
      tasks.size() >= 2 && keys_distinct(c, sched)) {
    ++verdict.properties_checked;
    RunOutput reversed;
    run_case(reversed_case(c), sched, &reversed);
    // DualHP's lambda bisection sums areas in task order, so its makespan
    // is only permutation-invariant up to FP rounding; the list schedulers
    // must match bitwise.
    const double slack = sched == SchedulerId::kDualHp
                             ? options.tol * std::max(1.0, makespan)
                             : 0.0;
    if (std::abs(reversed.schedule.makespan() - makespan) > slack) {
      fail("permute", "reversing task order changes the makespan: " +
                          fmt(makespan) + " -> " +
                          fmt(reversed.schedule.makespan()));
    }
  }

  if ((options.props & kPropSpareCrash) && engine && !faulty) {
    const std::size_t ready0 =
        c.is_dag() ? [&] {
          std::size_t n = 0;
          for (std::size_t i = 0; i < c.graph.size(); ++i) {
            if (c.graph.in_degree(static_cast<TaskId>(i)) == 0) ++n;
          }
          return n;
        }()
                   : tasks.size();
    // Enough initially-ready work that the doomed spare cannot starve a
    // surviving worker during the t=0 dispatch pass.
    if (ready0 >= static_cast<std::size_t>(c.platform.workers()) + 2) {
      ++verdict.properties_checked;
      FuzzCase spare = c;
      spare.platform = Platform(c.platform.cpus(), c.platform.gpus() + 1);
      spare.faults = fault::FaultPlan{};
      spare.faults.add_crash(static_cast<WorkerId>(c.platform.workers()), 0.0);
      RunOutput with_spare;
      run_case(spare, sched, &with_spare);
      if (with_spare.schedule.makespan() != makespan) {
        fail("spare-crash",
             "a spare worker crashed at t=0 changes the makespan: " +
                 fmt(makespan) + " -> " + fmt(with_spare.schedule.makespan()));
      }
      if (with_spare.recovery.worker_crashes != 1) {
        fail("spare-crash", "expected exactly 1 crash, saw " +
                                std::to_string(
                                    with_spare.recovery.worker_crashes));
      }
    }
  }

  if ((options.props & kPropFaultAccount) && faulty) {
    ++verdict.properties_checked;
    std::vector<int> fail_count(c.graph.size(), 0);
    for (const obs::Event& e : run.events.events()) {
      if (e.kind == obs::EventKind::kTaskFail && e.task >= 0 &&
          static_cast<std::size_t>(e.task) < fail_count.size()) {
        ++fail_count[static_cast<std::size_t>(e.task)];
      }
    }
    const int budget = c.faults.max_attempts();
    int abandoned = 0;
    int unplaced = 0;
    for (std::size_t i = 0; i < c.graph.size(); ++i) {
      const bool placed = run.schedule.placements()[i].placed();
      if (!placed) ++unplaced;
      if (fail_count[i] > budget) {
        fail("fault-account", "task " + std::to_string(i) + " ran " +
                                  std::to_string(fail_count[i]) +
                                  " failed attempts, budget is " +
                                  std::to_string(budget));
      }
      if (fail_count[i] == budget) {
        ++abandoned;
        if (placed) {
          fail("fault-account",
               "task " + std::to_string(i) +
                   " exhausted its retry budget yet has a final placement");
        }
      }
    }
    if (abandoned != run.recovery.tasks_abandoned) {
      fail("fault-account",
           "tasks with exhausted budgets: " + std::to_string(abandoned) +
               ", recovery.tasks_abandoned: " +
               std::to_string(run.recovery.tasks_abandoned));
    }
    if (unplaced != run.recovery.tasks_unfinished) {
      fail("fault-account",
           "unplaced tasks: " + std::to_string(unplaced) +
               ", recovery.tasks_unfinished: " +
               std::to_string(run.recovery.tasks_unfinished));
    }
    if (run.recovery.degraded != (unplaced > 0)) {
      fail("fault-account", "degraded flag inconsistent with " +
                                std::to_string(unplaced) + " unplaced tasks");
    }
  }

  if ((options.props & kPropOnline) && engine) {
    // Differential against the online runtime. Leg one, always: replayed
    // with every arrival at t=0 (and the case's fault plan), the online
    // runtime is bitwise-identical to the batch engine — the PR's anchor.
    ++verdict.properties_checked;
    online::OnlineOptions oo;
    oo.enable_spoliation = spoliates(sched);
    if (faulty) oo.faults = &c.faults;
    online::OnlineStats origin_stats;
    const Schedule origin =
        c.is_dag()
            ? online::online_run_dag(c.graph, c.platform, oo, &origin_stats)
            : online::online_run(tasks, c.platform, oo, &origin_stats);
    std::string why;
    if (!identical_schedules(run.schedule, origin, &why)) {
      fail("online", "all-at-t=0 online run diverges from batch: " + why);
    }
    if (faulty && !(origin_stats.recovery == run.recovery)) {
      fail("online", "all-at-t=0 online recovery diverges from batch");
    }

    // Leg two, when the case carries a staggered stream: the schedule
    // changes (arrivals reshape the interleaving) but it must stay valid,
    // honor every arrival instant, and account for every task.
    if (c.has_arrivals()) {
      oo.arrivals = &c.arrivals;
      online::OnlineStats stag_stats;
      const Schedule stag =
          c.is_dag()
              ? online::online_run_dag(c.graph, c.platform, oo, &stag_stats)
              : online::online_run(tasks, c.platform, oo, &stag_stats);
      ScheduleCheckOptions sc;
      sc.tol = options.tol;
      sc.require_complete = false;
      sc.exact_durations = false;
      const ScheduleCheck check =
          c.is_dag() ? check_schedule(stag, c.graph, c.platform, sc)
                     : check_schedule(stag, tasks, c.platform, sc);
      if (!check.ok) {
        fail("online", "staggered online run invalid: " + check.message);
      }
      std::size_t placed = 0;
      for (std::size_t i = 0; i < stag.num_tasks(); ++i) {
        const Placement& p = stag.placements()[i];
        if (!p.placed()) continue;
        ++placed;
        if (p.start < c.arrivals.arrival(static_cast<TaskId>(i)) - 1e-12) {
          fail("online",
               "task " + std::to_string(i) + " started at " + fmt(p.start) +
                   ", before its arrival at " +
                   fmt(c.arrivals.arrival(static_cast<TaskId>(i))));
        }
      }
      for (const AbortedSegment& seg : stag.aborted()) {
        if (seg.start < c.arrivals.arrival(seg.task) - 1e-12) {
          fail("online", "aborted attempt of task " +
                             std::to_string(seg.task) +
                             " started before its arrival");
        }
      }
      if (stag_stats.tasks_arrived != c.graph.size()) {
        fail("online", "staggered run saw " +
                           std::to_string(stag_stats.tasks_arrived) +
                           " arrivals for " + std::to_string(c.graph.size()) +
                           " tasks");
      }
      // Zero silent drops: every task placed, rejected, or unfinished.
      if (placed + stag_stats.tasks_rejected +
              static_cast<std::size_t>(stag_stats.recovery.tasks_unfinished) !=
          c.graph.size()) {
        fail("online",
             "accounting leak: placed " + std::to_string(placed) +
                 " + rejected " + std::to_string(stag_stats.tasks_rejected) +
                 " + unfinished " +
                 std::to_string(stag_stats.recovery.tasks_unfinished) +
                 " != " + std::to_string(c.graph.size()));
      }
    }
  }

  if ((options.props & kPropServe) && c.serve_workers >= 2) {
    // The service is a routing layer, never a scheduling layer: any case
    // submitted through it must come back bitwise-identical to the direct
    // engine run (`run`), whatever worker served it, however requests were
    // batched, and under whatever admission pressure — and every
    // submission must be answered (zero silent drops).
    ++verdict.properties_checked;
    const auto check_response = [&](const serve::Response& r,
                                    const char* leg) {
      if (r.status != serve::ResponseStatus::kCompleted) {
        fail("serve", std::string(leg) + ": request was not completed");
        return;
      }
      std::string why;
      if (!identical_schedules(run.schedule, r.schedule, &why)) {
        fail("serve", std::string(leg) +
                          ": service schedule diverges from the direct "
                          "engine run: " + why);
      }
      if (faulty && !(r.recovery == run.recovery)) {
        fail("serve", std::string(leg) +
                          ": service recovery report diverges from the "
                          "direct engine run");
      }
    };
    const auto check_balanced = [&](const serve::Service& service,
                                    const char* leg) {
      const serve::Service::Accounting acct = service.accounting();
      if (!acct.balanced() || acct.in_flight != 0) {
        fail("serve", std::string(leg) +
                          ": accounting identity broken: submitted " +
                          std::to_string(acct.submitted) + " != accepted " +
                          std::to_string(acct.accepted) + " + rejected " +
                          std::to_string(acct.rejected) + " (completed " +
                          std::to_string(acct.completed) + ", in flight " +
                          std::to_string(acct.in_flight) + ")");
      }
    };

    {  // Leg one: one tenant, one worker.
      serve::ServiceOptions so;
      so.workers = 1;
      serve::Service service(so);
      serve::Service::Ticket ticket =
          service.submit(serve_request(c, sched, 0));
      const serve::Response response = ticket.response.get();
      service.drain();
      check_response(response, "1-worker leg");
      check_balanced(service, "1-worker leg");
    }

    {  // Leg two: several tenants over serve_workers workers.
      serve::ServiceOptions so;
      so.workers = c.serve_workers;
      serve::Service service(so);
      constexpr int kRepeats = 4;
      std::vector<std::future<serve::Response>> futures;
      for (int i = 0; i < kRepeats; ++i) {
        futures.push_back(
            service.submit(serve_request(c, sched, i % 2)).response);
      }
      for (std::future<serve::Response>& f : futures) {
        check_response(f.get(), "W-worker leg");
      }
      service.drain();
      check_balanced(service, "W-worker leg");
    }

    {  // Leg three: seed-randomized admission watermarks and shed policy.
      util::Rng rng(util::seed_from_cell(
          {c.seed, static_cast<std::uint64_t>(c.graph.size()),
           static_cast<std::uint64_t>(sched)}));
      serve::ServiceOptions so;
      so.workers = c.serve_workers;
      so.watermark_high = 1 + rng.bounded(3);
      so.shed_policy = rng.bernoulli(0.5) ? online::ShedPolicy::kDefer
                                          : online::ShedPolicy::kReject;
      constexpr int kSubmissions = 6;
      std::vector<std::future<serve::Response>> futures;
      std::size_t rejected_tickets = 0;
      {
        serve::Service service(so);
        for (int i = 0; i < kSubmissions; ++i) {
          serve::Service::Ticket ticket =
              service.submit(serve_request(c, sched, i % 2));
          rejected_tickets +=
              ticket.admission == serve::Admission::kRejected ? 1 : 0;
          futures.push_back(std::move(ticket.response));
        }
        std::size_t completed = 0;
        std::size_t rejected = 0;
        for (std::future<serve::Response>& f : futures) {
          const serve::Response response = f.get();
          if (response.status == serve::ResponseStatus::kRejected) {
            ++rejected;
          } else {
            ++completed;
            check_response(response, "watermark leg");
          }
        }
        service.drain();
        check_balanced(service, "watermark leg");
        if (completed + rejected != kSubmissions) {
          fail("serve", "watermark leg: " + std::to_string(completed) +
                            " completed + " + std::to_string(rejected) +
                            " rejected != " + std::to_string(kSubmissions) +
                            " submitted");
        }
        if (rejected != rejected_tickets) {
          fail("serve",
               "watermark leg: rejected responses disagree with rejected "
               "tickets");
        }
        if (so.shed_policy == online::ShedPolicy::kDefer && rejected != 0) {
          fail("serve",
               "watermark leg: defer policy rejected " +
                   std::to_string(rejected) +
                   " submissions (deferred requests must complete)");
        }
      }
    }
  }

  return verdict;
}

}  // namespace hp::fuzz
