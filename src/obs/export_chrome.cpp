#include "obs/export_chrome.hpp"

#include <cmath>
#include <set>
#include <sstream>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace hp::obs {

namespace {

/// Multiplier from simulated seconds to emitted "ts" units.
constexpr double kTimeScale = 1000.0;

/// Slice/marker label for a task-carrying event.
std::string task_label(TaskId task, std::span<const Task> tasks) {
  if (task >= 0 && static_cast<std::size_t>(task) < tasks.size()) {
    return kernel_name(tasks[static_cast<std::size_t>(task)].kind);
  }
  return "task " + std::to_string(task);
}

}  // namespace

std::string chrome_trace_from_events(std::span<const Event> events,
                                     const Platform& platform,
                                     std::span<const Task> tasks,
                                     const MetricsRegistry* rollup) {
  std::ostringstream oss;
  oss << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) oss << ',';
    first = false;
  };
  auto ts = [&](double t) { return util::format_double(t * kTimeScale, 3); };

  // Open execution per worker, for pairing starts with completes/aborts.
  struct OpenSlice {
    TaskId task = kInvalidTask;
    double start = 0.0;
  };
  std::vector<OpenSlice> open(static_cast<std::size_t>(platform.workers()));

  // Running-set size per resource, sampled on every change.
  int running[2] = {0, 0};
  auto emit_running = [&](double time, Resource r) {
    sep();
    oss << "{\"name\":\"running_"
        << (r == Resource::kCpu ? "cpu" : "gpu")
        << "\",\"cat\":\"counters\",\"ph\":\"C\",\"pid\":0,\"ts\":"
        << ts(time) << ",\"args\":{\"running\":"
        << running[static_cast<std::size_t>(r)] << "}}";
  };

  auto emit_slice = [&](const Event& e, const OpenSlice& slice, bool aborted) {
    sep();
    oss << "{\"name\":\"" << task_label(slice.task, tasks)
        << (aborted ? " (aborted)" : "") << "\",\"cat\":\""
        << (aborted ? "aborted" : "task") << "\",\"ph\":\"X\",\"pid\":0,"
        << "\"tid\":" << e.worker << ",\"ts\":" << ts(slice.start)
        << ",\"dur\":" << ts(e.time - slice.start) << ",\"args\":{\"task\":"
        << slice.task << "}}";
  };
  auto emit_instant = [&](const Event& e, const char* name,
                          const char* cat = "spoliation") {
    sep();
    oss << "{\"name\":\"" << name << "\",\"cat\":\"" << cat
        << "\",\"ph\":\"i\","
        << "\"s\":\"t\",\"pid\":0,\"tid\":" << e.worker
        << ",\"ts\":" << ts(e.time) << ",\"args\":{\"task\":" << e.task;
    if (e.victim >= 0) oss << ",\"victim\":" << e.victim;
    oss << "}}";
  };

  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kStart:
        if (e.worker >= 0) {
          open[static_cast<std::size_t>(e.worker)] = {e.task, e.time};
          const Resource r = platform.type_of(e.worker);
          ++running[static_cast<std::size_t>(r)];
          emit_running(e.time, r);
        }
        break;
      case EventKind::kComplete:
      case EventKind::kAbort: {
        if (e.worker < 0) break;
        OpenSlice& slice = open[static_cast<std::size_t>(e.worker)];
        if (slice.task == kInvalidTask) break;  // unpaired
        emit_slice(e, slice, e.kind == EventKind::kAbort);
        slice = OpenSlice{};
        const Resource r = platform.type_of(e.worker);
        --running[static_cast<std::size_t>(r)];
        emit_running(e.time, r);
        break;
      }
      case EventKind::kSpoliateCommit:
        emit_instant(e, "spoliate-commit");
        break;
      case EventKind::kSpoliateAttempt:
        emit_instant(e, "spoliate-attempt");
        break;
      case EventKind::kSpoliateSkip:
        emit_instant(e, "spoliate-skip");
        break;
      case EventKind::kQueueDepth:
        sep();
        oss << "{\"name\":\"ready_queue_depth\",\"cat\":\"counters\","
            << "\"ph\":\"C\",\"pid\":0,\"ts\":" << ts(e.time)
            << ",\"args\":{\"depth\":" << util::format_double(e.value, 0)
            << "}}";
        break;
      case EventKind::kBoundViolation:
        sep();
        oss << "{\"name\":\"bound-violation\",\"cat\":\"watchdog\","
            << "\"ph\":\"i\",\"s\":\"g\",\"pid\":0,\"ts\":" << ts(e.time)
            << ",\"args\":{\"ratio\":" << util::format_double(e.value, 6)
            << "}}";
        break;
      case EventKind::kWorkerCrash:
        emit_instant(e, "worker-crash", "fault");
        break;
      case EventKind::kTaskFail:
        emit_instant(e, "task-fail", "fault");
        break;
      case EventKind::kTaskRetry:
        emit_instant(e, "task-retry", "fault");
        break;
      case EventKind::kWorkerSlowBegin:
      case EventKind::kWorkerSlowEnd: {
        // Straggler windows render as an on/off counter track per worker so
        // the slowdown span is visible against the worker's slices.
        sep();
        oss << "{\"name\":\"slowdown_w" << e.worker
            << "\",\"cat\":\"fault\",\"ph\":\"C\",\"pid\":0,\"ts\":"
            << ts(e.time) << ",\"args\":{\"factor\":"
            << util::format_double(
                   e.kind == EventKind::kWorkerSlowBegin ? e.value : 0.0, 3)
            << "}}";
        break;
      }
      case EventKind::kRunDegraded:
        sep();
        oss << "{\"name\":\"run-degraded\",\"cat\":\"fault\",\"ph\":\"i\","
            << "\"s\":\"g\",\"pid\":0,\"ts\":" << ts(e.time)
            << ",\"args\":{\"unfinished\":" << util::format_double(e.value, 0)
            << "}}";
        break;
      case EventKind::kTaskShed:
        emit_instant(e, "task-shed", "online");
        break;
      case EventKind::kTaskDeferred:
        emit_instant(e, "task-deferred", "online");
        break;
      case EventKind::kDeadlineMiss:
        emit_instant(e, "deadline-miss", "online");
        break;
      case EventKind::kStragglerRespawn:
        emit_instant(e, "straggler-respawn", "online");
        break;
      case EventKind::kReplan:
        sep();
        oss << "{\"name\":\"replan\",\"cat\":\"online\",\"ph\":\"i\","
            << "\"s\":\"g\",\"pid\":0,\"ts\":" << ts(e.time)
            << ",\"args\":{\"inserts\":" << util::format_double(e.value, 0)
            << "}}";
        break;
      case EventKind::kRescheduleTick:
        sep();
        oss << "{\"name\":\"reschedule-tick\",\"cat\":\"online\",\"ph\":\"i\","
            << "\"s\":\"g\",\"pid\":0,\"ts\":" << ts(e.time)
            << ",\"args\":{\"index\":" << util::format_double(e.value, 0)
            << "}}";
        break;
      case EventKind::kModeChange:
        // The degraded-mode state machine renders as a 0/1/2 counter track
        // (healthy/degraded/shedding) so mode spans line up with the
        // arrival/shed markers above.
        sep();
        oss << "{\"name\":\"runtime_mode\",\"cat\":\"online\",\"ph\":\"C\","
            << "\"pid\":0,\"ts\":" << ts(e.time) << ",\"args\":{\"mode\":"
            << util::format_double(e.value, 0) << "}}";
        break;
      case EventKind::kTaskArrival:
      case EventKind::kReady:
      case EventKind::kIdleBegin:
      case EventKind::kIdleEnd:
        // Lifecyle details that would only add noise as trace entries; the
        // CSV exporter and the counters carry them.
        break;
    }
  }

  // One named track per worker.
  for (WorkerId w = 0; w < platform.workers(); ++w) {
    sep();
    oss << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << w
        << ",\"args\":{\"name\":\"" << resource_name(platform.type_of(w))
        << ' ' << w << "\"}}";
  }

  // One metadata record rolling up the run's registry, so the trace
  // carries the same numbers the Prometheus exposition serves.
  if (rollup != nullptr) {
    sep();
    oss << "{\"name\":\"hp_metrics_rollup\",\"ph\":\"M\",\"pid\":0,"
        << "\"args\":{";
    bool first_arg = true;
    auto arg_sep = [&] {
      if (!first_arg) oss << ',';
      first_arg = false;
    };
    for (const auto* family : {&rollup->counters(), &rollup->gauges()}) {
      for (const auto& entry : *family) {
        arg_sep();
        oss << '"' << entry.name
            << "\":" << util::format_double(entry.value, 6);
      }
    }
    for (const auto& entry : rollup->histograms()) {
      const Histogram& h = entry.histogram;
      arg_sep();
      oss << '"' << entry.name << "\":{\"count\":" << h.count()
          << ",\"p50\":" << util::format_double(h.quantile(0.5), 6)
          << ",\"p90\":" << util::format_double(h.quantile(0.9), 6)
          << ",\"p99\":" << util::format_double(h.quantile(0.99), 6)
          << ",\"max\":" << util::format_double(h.max(), 6) << '}';
    }
    oss << "}}";
  }
  oss << "]}";
  return oss.str();
}

bool validate_chrome_trace(const std::string& json_text,
                           const std::optional<Platform>& platform,
                           std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };

  JsonValue doc;
  std::string parse_error;
  if (!json_parse(json_text, &doc, &parse_error)) {
    return fail("not valid JSON: " + parse_error);
  }
  if (!doc.is_object()) return fail("document is not an object");
  const JsonValue* events = doc.find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return fail("missing traceEvents array");
  }

  std::multiset<double> named_tids;  // tids carrying a thread_name meta
  std::size_t index = 0;
  for (const JsonValue& entry : events->as_array()) {
    const std::string where = "traceEvents[" + std::to_string(index++) + "]";
    if (!entry.is_object()) return fail(where + " is not an object");
    const JsonValue* name = entry.find("name");
    const JsonValue* ph = entry.find("ph");
    if (name == nullptr || !name->is_string()) {
      return fail(where + " has no string name");
    }
    if (ph == nullptr || !ph->is_string() || ph->as_string().size() != 1) {
      return fail(where + " has no phase");
    }
    const char phase = ph->as_string()[0];
    const JsonValue* ts_field = entry.find("ts");
    if (phase != 'M' && (ts_field == nullptr || !ts_field->is_number())) {
      return fail(where + " has no numeric ts");
    }
    if (phase == 'X') {
      const JsonValue* dur = entry.find("dur");
      if (dur == nullptr || !dur->is_number() || dur->as_number() < 0.0) {
        return fail(where + " X slice has no non-negative dur");
      }
      const JsonValue* tid = entry.find("tid");
      if (tid == nullptr || !tid->is_number()) {
        return fail(where + " X slice has no tid");
      }
    }
    if (phase == 'M' && name->as_string() == "thread_name") {
      const JsonValue* tid = entry.find("tid");
      const JsonValue* args = entry.find("args");
      if (tid == nullptr || !tid->is_number()) {
        return fail(where + " thread_name has no tid");
      }
      if (args == nullptr || args->find("name") == nullptr) {
        return fail(where + " thread_name has no args.name");
      }
      named_tids.insert(tid->as_number());
    }
  }

  if (platform.has_value()) {
    for (WorkerId w = 0; w < platform->workers(); ++w) {
      const auto count = named_tids.count(static_cast<double>(w));
      if (count != 1) {
        return fail("worker " + std::to_string(w) + " has " +
                    std::to_string(count) + " thread_name records, want 1");
      }
    }
  }
  return true;
}

}  // namespace hp::obs
