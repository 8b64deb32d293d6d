#pragma once
// CSV timeseries exporter for scheduler event streams, with an exact
// round-trip parser (times and values are written with max_digits10
// significant digits, so emit -> parse -> emit is the identity).
//
// Columns: time,kind,task,worker,victim,value — one row per event, in
// stream order. This is the plotting/diffing companion of the Chrome
// exporter: trivially loadable in pandas/gnuplot, and the format the
// round-trip tests rely on.
//
// Beside it sits the human-readable execution log used by the examples:
// one line per start / complete / abort / spoliate-commit event.

#include <span>
#include <string>
#include <vector>

#include "model/platform.hpp"
#include "obs/event.hpp"

namespace hp::obs {

/// Render `events` as a CSV document (header + one row per event).
[[nodiscard]] std::string csv_from_events(std::span<const Event> events);

/// Parse a document produced by csv_from_events. On failure returns false
/// and explains (with line number) in `*error`.
bool events_from_csv(const std::string& text, std::vector<Event>* out,
                     std::string* error);

/// Render the start, complete, abort and spoliate-commit events of
/// `events` as an execution log, one line each in stream order, e.g.
/// "[t=1.25] start task 7 on GPU#1". A spoliate-commit line names its
/// victim: "[t=4] spoliate task 3 on GPU#2 (spoliated from CPU#1)". Other
/// kinds are skipped.
[[nodiscard]] std::string text_from_events(std::span<const Event> events,
                                           const Platform& platform);

}  // namespace hp::obs
