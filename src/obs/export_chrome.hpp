#pragma once
// Chrome trace-event JSON exporter for scheduler event streams.
//
// The output loads in Perfetto (ui.perfetto.dev) and chrome://tracing: one
// track per worker carrying the executed slices (aborted spoliation
// segments as separate "aborted"-category slices), instant markers for
// spoliation attempts/skips/commits and bound violations, and counter
// tracks for the ready-queue depth and the running-set size per resource
// (running_cpu / running_gpu). Simulated seconds are written as
// microseconds-scale "ts" values (x1000) so short schedules stay readable.
//
// validate_chrome_trace() parses an emitted document back (obs/json.hpp)
// and checks the trace-event schema: traceEvents array, required fields per
// phase, and one thread_name metadata record per worker.

#include <optional>
#include <span>
#include <string>

#include "model/platform.hpp"
#include "model/task.hpp"
#include "obs/event.hpp"

namespace hp::obs {

class MetricsRegistry;

/// Render `events` (one run, time-ordered) as a Chrome trace-event JSON
/// document. `tasks` provides slice names (kernel kinds); pass an empty
/// span to fall back to "task <id>" labels. A non-null `rollup` adds one
/// "hp_metrics_rollup" metadata record: every counter and gauge verbatim
/// (scheduler counters, cp_* critical-path attribution) and
/// count/p50/p90/p99/max per histogram, the same numbers the Prometheus
/// exposition reports, so the trace and the scrape cannot drift apart.
/// Static plans feed this exporter through obs::replay_schedule().
[[nodiscard]] std::string chrome_trace_from_events(
    std::span<const Event> events, const Platform& platform,
    std::span<const Task> tasks = {},
    const MetricsRegistry* rollup = nullptr);

/// Schema check of an emitted document. Verifies: valid JSON; a
/// "traceEvents" array; every entry has name/ph/pid/tid-as-needed/ts; "X"
/// slices carry a "dur"; exactly one thread_name metadata entry per worker
/// of `platform` (when a platform is given). Returns false and explains in
/// `*error` on the first violation.
bool validate_chrome_trace(const std::string& json_text,
                           const std::optional<Platform>& platform,
                           std::string* error);

}  // namespace hp::obs
