#include "sched/export.hpp"

#include <sstream>

#include "util/table.hpp"

namespace hp {

namespace {

const char* kind_fill(KernelKind kind) {
  switch (kind) {
    case KernelKind::kPotrf:
    case KernelKind::kGeqrt:
    case KernelKind::kGetrf: return "#e45756";
    case KernelKind::kTrsm:
    case KernelKind::kOrmqr:
    case KernelKind::kGessm: return "#f2a93b";
    case KernelKind::kSyrk:
    case KernelKind::kTsqrt:
    case KernelKind::kTstrf:
    case KernelKind::kTtqrt: return "#4c78a8";
    case KernelKind::kGemm:
    case KernelKind::kTsmqr:
    case KernelKind::kSsssm:
    case KernelKind::kTtmqr: return "#59a14f";
    case KernelKind::kP2P: return "#59a14f";
    case KernelKind::kM2L: return "#4c78a8";
    case KernelKind::kP2M:
    case KernelKind::kM2M:
    case KernelKind::kL2L:
    case KernelKind::kL2P: return "#f2a93b";
    case KernelKind::kGeneric: return "#9d9d9d";
  }
  return "#9d9d9d";
}

}  // namespace

std::string to_svg_gantt(const Schedule& schedule, std::span<const Task> tasks,
                         const Platform& platform, const SvgOptions& options) {
  const double makespan = schedule.makespan();
  const int gutter = 70;
  const int height = platform.workers() * options.row_height + 30;
  const double scale = makespan > 0.0 ? options.width / makespan : 1.0;

  std::ostringstream oss;
  oss << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\""
      << gutter + options.width + 10 << "\" height=\"" << height
      << "\" font-family=\"sans-serif\" font-size=\"11\">\n";

  for (WorkerId w = 0; w < platform.workers(); ++w) {
    const int y = 10 + w * options.row_height;
    oss << "<text x=\"4\" y=\"" << y + options.row_height / 2 + 4 << "\">"
        << resource_name(platform.type_of(w)) << w << "</text>\n"
        << "<line x1=\"" << gutter << "\" y1=\"" << y + options.row_height
        << "\" x2=\"" << gutter + options.width << "\" y2=\""
        << y + options.row_height << "\" stroke=\"#ddd\"/>\n";
  }

  auto rect = [&](WorkerId w, double start, double end, const char* fill,
                  double opacity, const char* title) {
    const int y = 10 + w * options.row_height;
    oss << "<rect x=\"" << util::format_double(gutter + start * scale, 2)
        << "\" y=\"" << y + 2 << "\" width=\""
        << util::format_double(std::max(0.5, (end - start) * scale), 2)
        << "\" height=\"" << options.row_height - 4 << "\" fill=\"" << fill
        << "\" fill-opacity=\"" << opacity
        << "\" stroke=\"#333\" stroke-width=\"0.3\"><title>" << title
        << "</title></rect>\n";
  };

  if (options.show_aborted) {
    for (const AbortedSegment& a : schedule.aborted()) {
      rect(a.worker, a.start, a.abort_time, "#bbbbbb", 0.6,
           "aborted by spoliation");
    }
  }
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const Placement& p = schedule.placement(static_cast<TaskId>(i));
    if (!p.placed()) continue;
    rect(p.worker, p.start, p.end, kind_fill(tasks[i].kind), 1.0,
         kernel_name(tasks[i].kind));
  }
  oss << "<text x=\"" << gutter << "\" y=\"" << height - 6
      << "\">makespan = " << util::format_double(makespan, 3) << "</text>\n"
      << "</svg>\n";
  return oss.str();
}

}  // namespace hp
