#include "sched/critical_path.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <sstream>

namespace hp {

namespace {

/// One executed interval on a worker: a final placement or a spoliated
/// partial. `task`+`aborted` identify it uniquely.
struct WorkerSegment {
  TaskId task = kInvalidTask;
  double begin = 0.0;
  double end = 0.0;
  bool aborted = false;
};

struct Explainer {
  bool found = false;
  WorkerSegment segment;
  WorkerId worker = -1;
  CpLink link = CpLink::kMakespan;
};

}  // namespace

const char* cp_link_name(CpLink link) noexcept {
  switch (link) {
    case CpLink::kMakespan: return "makespan";
    case CpLink::kDependency: return "dependency";
    case CpLink::kWorker: return "worker-busy";
  }
  return "?";
}

CriticalPathReport build_critical_path(const Schedule& schedule,
                                       std::span<const Task> tasks,
                                       const Platform& platform,
                                       const TaskGraph* graph) {
  CriticalPathReport report;
  report.makespan = schedule.makespan();
  const double eps = 1e-9 * std::max(1.0, report.makespan);

  // Per-worker timelines sorted by end time, so the latest interval
  // finishing at or before an instant is one upper_bound away.
  std::vector<std::vector<WorkerSegment>> timeline(
      static_cast<std::size_t>(platform.workers()));
  const auto placements = schedule.placements();
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const Placement& p = placements[i];
    if (!p.placed()) continue;
    timeline[static_cast<std::size_t>(p.worker)].push_back(
        WorkerSegment{static_cast<TaskId>(i), p.start, p.end, false});
  }
  for (const AbortedSegment& a : schedule.aborted()) {
    timeline[static_cast<std::size_t>(a.worker)].push_back(
        WorkerSegment{a.task, a.start, a.abort_time, true});
  }
  for (auto& lane : timeline) {
    std::sort(lane.begin(), lane.end(),
              [](const WorkerSegment& a, const WorkerSegment& b) {
                return a.end != b.end ? a.end < b.end : a.begin < b.begin;
              });
  }

  // Chain anchor: the placement that defines the makespan.
  Explainer cur;
  for (std::size_t i = 0; i < placements.size(); ++i) {
    const Placement& p = placements[i];
    if (!p.placed()) continue;
    if (!cur.found || p.end > cur.segment.end) {
      cur.found = true;
      cur.segment = WorkerSegment{static_cast<TaskId>(i), p.start, p.end, false};
      cur.worker = p.worker;
      cur.link = CpLink::kMakespan;
    }
  }
  if (!cur.found) return report;

  // Walk backwards; segments are collected newest-first and reversed at the
  // end. Each step moves to an interval with a strictly earlier end, so the
  // walk terminates after at most one visit per executed interval.
  std::vector<CpSegment> chain;
  while (true) {
    chain.push_back(CpSegment{cur.segment.task, cur.worker, cur.segment.begin,
                              cur.segment.end, cur.segment.aborted, cur.link});
    if (cur.segment.begin <= eps) break;

    // Candidate 1: the latest-finishing dependency predecessor whose
    // completion released this task.
    Explainer next;
    if (graph != nullptr) {
      for (const TaskId pred : graph->predecessors(cur.segment.task)) {
        const Placement& pp = schedule.placement(pred);
        if (!pp.placed() || pp.end > cur.segment.begin + eps) continue;
        if (!next.found || pp.end > next.segment.end) {
          next.found = true;
          next.segment = WorkerSegment{pred, pp.start, pp.end, false};
          next.worker = pp.worker;
          next.link = CpLink::kDependency;
        }
      }
    }

    // Candidate 2: the previous occupant of the same worker. Wins only when
    // it finishes strictly later than the best dependency (a dependency that
    // ends at the same instant is the more causal explanation).
    const auto& lane = timeline[static_cast<std::size_t>(cur.worker)];
    const double begin = cur.segment.begin;
    auto it = std::upper_bound(lane.begin(), lane.end(), begin + eps,
                               [](double t, const WorkerSegment& s) {
                                 return t < s.end;
                               });
    while (it != lane.begin()) {
      --it;
      if (it->task == cur.segment.task && it->aborted == cur.segment.aborted) {
        continue;  // the current interval itself (zero-length predecessors)
      }
      if (!next.found || it->end > next.segment.end + eps) {
        next.found = true;
        next.segment = *it;
        next.worker = cur.worker;
        next.link = CpLink::kWorker;
      }
      break;
    }

    if (!next.found) {
      // Nothing explains this start: the chain begins with front idle.
      if (begin > eps) {
        chain.push_back(
            CpSegment{kInvalidTask, cur.worker, 0.0, begin, false, cur.link});
      }
      break;
    }
    if (next.segment.end < begin - eps) {
      // Gap between the explainer and this segment: uncovered idle.
      chain.push_back(CpSegment{kInvalidTask, next.worker, next.segment.end,
                                begin, false, next.link});
    }
    cur = next;
  }
  std::reverse(chain.begin(), chain.end());
  report.segments = std::move(chain);

  for (const CpSegment& s : report.segments) {
    if (s.is_idle()) {
      report.idle_time += s.span();
      continue;
    }
    report.compute_time += s.span();
    const auto kind =
        static_cast<std::size_t>(tasks[static_cast<std::size_t>(s.task)].kind);
    if (kind < kNumKernelKinds) report.compute_by_kind[kind] += s.span();
    if (s.aborted) ++report.aborted_segments;
    switch (s.link) {
      case CpLink::kDependency: ++report.dependency_links; break;
      case CpLink::kWorker: ++report.worker_links; break;
      case CpLink::kMakespan: break;
    }
  }
  return report;
}

std::string describe(const CriticalPathReport& report,
                     std::span<const Task> tasks, const Platform& platform,
                     std::size_t max_segments) {
  std::ostringstream out;
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "critical path: %zu segments over makespan %.6g "
                "(compute %.1f%%, idle %.1f%%)\n",
                report.segments.size(), report.makespan,
                100.0 * report.compute_fraction(),
                report.makespan > 0.0
                    ? 100.0 * report.idle_time / report.makespan
                    : 0.0);
  out << buf;
  std::snprintf(buf, sizeof buf,
                "links: %zu dependency, %zu worker-busy; %zu spoliated "
                "partial(s) on the chain\n",
                report.dependency_links, report.worker_links,
                report.aborted_segments);
  out << buf;

  bool any_kind = false;
  for (std::size_t k = 0; k < kNumKernelKinds; ++k) {
    if (report.compute_by_kind[k] <= 0.0) continue;
    if (!any_kind) {
      out << "compute by kernel:";
      any_kind = true;
    }
    std::snprintf(buf, sizeof buf, " %s=%.6g",
                  kernel_name(static_cast<KernelKind>(k)),
                  report.compute_by_kind[k]);
    out << buf;
  }
  if (any_kind) out << '\n';

  // Longest segments first: the tuning targets.
  std::vector<const CpSegment*> by_span;
  by_span.reserve(report.segments.size());
  for (const CpSegment& s : report.segments) by_span.push_back(&s);
  std::stable_sort(by_span.begin(), by_span.end(),
                   [](const CpSegment* a, const CpSegment* b) {
                     return a->span() > b->span();
                   });
  if (by_span.size() > max_segments) by_span.resize(max_segments);
  if (!by_span.empty()) out << "longest segments:\n";
  for (const CpSegment* s : by_span) {
    if (s->is_idle()) {
      std::snprintf(buf, sizeof buf, "  [%.6g, %.6g] idle (%.6g)\n", s->begin,
                    s->end, s->span());
      out << buf;
      continue;
    }
    const Task& task = tasks[static_cast<std::size_t>(s->task)];
    const bool on_gpu = platform.type_of(s->worker) == Resource::kGpu;
    std::snprintf(buf, sizeof buf,
                  "  [%.6g, %.6g] task %lld %s on %s %d%s -> %s\n", s->begin,
                  s->end, static_cast<long long>(s->task),
                  kernel_name(task.kind), on_gpu ? "gpu" : "cpu",
                  static_cast<int>(s->worker),
                  s->aborted ? " (spoliated partial)" : "",
                  cp_link_name(s->link));
    out << buf;
  }
  return out.str();
}

void add_to_registry(const CriticalPathReport& report,
                     obs::MetricsRegistry* registry) {
  assert(registry != nullptr);
  registry->gauge("cp_segments") = static_cast<double>(report.segments.size());
  registry->gauge("cp_compute_time") = report.compute_time;
  registry->gauge("cp_idle_time") = report.idle_time;
  registry->gauge("cp_compute_fraction") = report.compute_fraction();
  registry->gauge("cp_dependency_links") =
      static_cast<double>(report.dependency_links);
  registry->gauge("cp_worker_links") =
      static_cast<double>(report.worker_links);
  registry->gauge("cp_aborted_segments") =
      static_cast<double>(report.aborted_segments);
}

}  // namespace hp
