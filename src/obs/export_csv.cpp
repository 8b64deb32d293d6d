#include "obs/export_csv.hpp"

#include <cstdlib>
#include <limits>
#include <sstream>

#include "util/table.hpp"

namespace hp::obs {

namespace {

constexpr const char* kHeader = "time,kind,task,worker,victim,value";

/// Shortest decimal form that parses back to the same double.
std::string exact_double(double value) {
  std::ostringstream oss;
  oss.precision(std::numeric_limits<double>::max_digits10);
  oss << value;
  return oss.str();
}

/// Split one CSV line at commas (no field in this format ever contains a
/// comma or quote, so no RFC 4180 unescaping is needed).
std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      fields.push_back(line.substr(start));
      return fields;
    }
    fields.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

}  // namespace

std::string csv_from_events(std::span<const Event> events) {
  std::ostringstream oss;
  oss << kHeader << '\n';
  for (const Event& e : events) {
    oss << exact_double(e.time) << ',' << event_kind_name(e.kind) << ','
        << e.task << ',' << e.worker << ',' << e.victim << ','
        << exact_double(e.value) << '\n';
  }
  return oss.str();
}

bool events_from_csv(const std::string& text, std::vector<Event>* out,
                     std::string* error) {
  out->clear();
  std::istringstream iss(text);
  std::string line;
  std::size_t line_no = 0;
  auto fail = [&](const std::string& message) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + message;
    }
    return false;
  };

  while (std::getline(iss, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line_no == 1) {
      if (line != kHeader) return fail("unexpected header '" + line + "'");
      continue;
    }
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_line(line);
    if (fields.size() != 6) {
      return fail("expected 6 fields, got " + std::to_string(fields.size()));
    }
    Event e;
    char* end = nullptr;
    e.time = std::strtod(fields[0].c_str(), &end);
    if (end != fields[0].c_str() + fields[0].size()) return fail("bad time");
    if (!event_kind_from_name(fields[1].c_str(), &e.kind)) {
      return fail("unknown kind '" + fields[1] + "'");
    }
    e.task = static_cast<TaskId>(std::strtol(fields[2].c_str(), &end, 10));
    if (end != fields[2].c_str() + fields[2].size()) return fail("bad task");
    e.worker = static_cast<WorkerId>(std::strtol(fields[3].c_str(), &end, 10));
    if (end != fields[3].c_str() + fields[3].size()) return fail("bad worker");
    e.victim = static_cast<WorkerId>(std::strtol(fields[4].c_str(), &end, 10));
    if (end != fields[4].c_str() + fields[4].size()) return fail("bad victim");
    e.value = std::strtod(fields[5].c_str(), &end);
    if (end != fields[5].c_str() + fields[5].size()) return fail("bad value");
    out->push_back(e);
  }
  if (line_no == 0) return fail("empty document");
  return true;
}

std::string text_from_events(std::span<const Event> events,
                             const Platform& platform) {
  std::ostringstream oss;
  const auto on = [&](WorkerId w) {
    oss << resource_name(platform.type_of(w)) << '#' << w;
  };
  for (const Event& e : events) {
    const char* verb = nullptr;
    switch (e.kind) {
      case EventKind::kStart: verb = "start"; break;
      case EventKind::kComplete: verb = "complete"; break;
      case EventKind::kAbort: verb = "abort"; break;
      case EventKind::kSpoliateCommit: verb = "spoliate"; break;
      default: continue;
    }
    oss << "[t=" << util::format_double(e.time, 4) << "] " << verb << " task "
        << e.task << " on ";
    on(e.worker);
    if (e.kind == EventKind::kSpoliateCommit && e.victim >= 0) {
      oss << " (spoliated from ";
      on(e.victim);
      oss << ')';
    }
    oss << '\n';
  }
  return oss.str();
}

}  // namespace hp::obs
