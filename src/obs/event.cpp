#include "obs/event.hpp"

#include <algorithm>
#include <cstring>

namespace hp::obs {

namespace {
constexpr const char* kKindNames[kNumEventKinds] = {
    "ready",           "start",
    "complete",        "abort",
    "spoliate-attempt", "spoliate-skip",
    "spoliate-commit", "queue-depth",
    "idle-begin",      "idle-end",
    "bound-violation", "worker-crash",
    "worker-slow-begin", "worker-slow-end",
    "task-fail",       "task-retry",
    "run-degraded",    "task-arrival",
    "task-shed",       "task-deferred",
    "deadline-miss",   "replan",
    "reschedule-tick", "mode-change",
    "straggler-respawn",
};

int tie_rank(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kAbort:
    case EventKind::kComplete: return 0;
    case EventKind::kSpoliateCommit:
    case EventKind::kWorkerCrash:
    case EventKind::kTaskFail: return 1;
    case EventKind::kReady:
    case EventKind::kTaskRetry: return 2;
    case EventKind::kStart: return 3;
    default: return 4;
  }
}
}  // namespace

const char* event_kind_name(EventKind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return i < kNumEventKinds ? kKindNames[i] : "?";
}

bool event_kind_from_name(const char* name, EventKind* out) noexcept {
  for (std::size_t i = 0; i < kNumEventKinds; ++i) {
    if (std::strcmp(name, kKindNames[i]) == 0) {
      *out = static_cast<EventKind>(i);
      return true;
    }
  }
  return false;
}

void sort_events(std::span<Event> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& x, const Event& y) {
                     if (x.time != y.time) return x.time < y.time;
                     const int rx = tie_rank(x.kind);
                     const int ry = tie_rank(y.kind);
                     if (rx != ry) return rx < ry;
                     return x.task < y.task;
                   });
}

}  // namespace hp::obs
