#include "obs/replay.hpp"

namespace hp::obs {

std::vector<Event> replay_schedule(const Schedule& schedule,
                                   const Platform& platform) {
  (void)platform;  // shape is implicit in worker ids; kept for symmetry
  std::vector<Event> events;
  events.reserve(3 * schedule.num_tasks() + 3 * schedule.aborted().size());

  for (std::size_t i = 0; i < schedule.num_tasks(); ++i) {
    const auto id = static_cast<TaskId>(i);
    const Placement& p = schedule.placement(id);
    if (!p.placed()) continue;
    // The decision time is not recorded in a Schedule; the replayed ready
    // instant is approximated by the start time.
    events.push_back({.time = p.start, .kind = EventKind::kReady, .task = id});
    events.push_back(
        {.time = p.start, .kind = EventKind::kStart, .task = id, .worker = p.worker});
    events.push_back(
        {.time = p.end, .kind = EventKind::kComplete, .task = id, .worker = p.worker});
  }
  for (const AbortedSegment& a : schedule.aborted()) {
    events.push_back(
        {.time = a.start, .kind = EventKind::kStart, .task = a.task, .worker = a.worker});
    events.push_back({.time = a.abort_time,
                      .kind = EventKind::kAbort,
                      .task = a.task,
                      .worker = a.worker});
    const Placement& final = schedule.placement(a.task);
    if (final.placed()) {
      events.push_back({.time = a.abort_time,
                        .kind = EventKind::kSpoliateCommit,
                        .task = a.task,
                        .worker = final.worker,
                        .victim = a.worker});
    }
  }

  sort_events(events);

  // Queue-depth samples, one per distinct instant, so replayed plans get
  // the same Perfetto counter track as the dynamic schedulers. The
  // replayed ready instant equals the start instant, so the informative
  // number is the *peak* within the instant — everything still queued plus
  // the batch becoming ready — sampled after the instant's events.
  std::vector<Event> sampled;
  sampled.reserve(events.size() + events.size() / 3 + 1);
  long long carried = 0;  // ready but not yet started across instants
  long long starts_here = 0;
  double last_depth = -1.0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[i];
    sampled.push_back(e);
    if (e.kind == EventKind::kReady) ++carried;
    if (e.kind == EventKind::kStart) {
      --carried;
      ++starts_here;
    }
    const bool boundary =
        i + 1 == events.size() || events[i + 1].time != e.time;
    if (!boundary) continue;
    // Aborted attempts replay a start without a ready; never report the
    // resulting unpaired pops as negative depth.
    if (carried < 0) carried = 0;
    // Ties sort readies before starts, so the instant's peak is the carry
    // plus everything that started here.
    const auto depth = static_cast<double>(carried + starts_here);
    starts_here = 0;
    if (depth != last_depth) {
      sampled.push_back({.time = e.time,
                         .kind = EventKind::kQueueDepth,
                         .value = depth});
      last_depth = depth;
    }
  }
  return sampled;
}

void replay_schedule_to(const Schedule& schedule, const Platform& platform,
                        EventSink* sink) {
  if (sink == nullptr) return;
  for (const Event& e : replay_schedule(schedule, platform)) {
    sink->on_event(e);
  }
}

}  // namespace hp::obs
