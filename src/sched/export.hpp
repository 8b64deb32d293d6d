#pragma once
// Standalone SVG Gantt charts: inspection tooling for schedules beyond the
// terminal ASCII Gantt. Chrome trace-event JSON comes from the event-stream
// exporter, obs::chrome_trace_from_events(); a finished Schedule feeds it
// through obs::replay_schedule().

#include <span>
#include <string>

#include "model/platform.hpp"
#include "sched/schedule.hpp"

namespace hp {

struct SvgOptions {
  int width = 1200;        ///< drawing width in px (plus a label gutter)
  int row_height = 22;     ///< lane height per worker
  bool show_aborted = true;
};

/// Standalone SVG Gantt: one lane per worker, tasks colored by kernel kind,
/// aborted segments hatched gray.
[[nodiscard]] std::string to_svg_gantt(const Schedule& schedule,
                                       std::span<const Task> tasks,
                                       const Platform& platform,
                                       const SvgOptions& options = {});

}  // namespace hp
