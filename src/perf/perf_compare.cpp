#include "perf/perf_compare.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "perf/bench_common.hpp"

namespace hp::perf {

namespace {

/// Identity of one series entry, or nullopt for malformed entries.
std::optional<std::string> series_key(const obs::JsonValue& row) {
  const std::string algo = string_field(row, "algorithm");
  if (algo.empty()) return std::nullopt;
  if (const std::string kernel = string_field(row, "kernel"); !kernel.empty()) {
    const std::optional<double> tiles = number_field(row, "tiles");
    if (!tiles) return std::nullopt;
    return kernel + "/" + algo + " N=" + format_number(*tiles);
  }
  const std::optional<double> n = number_field(row, "n");
  if (!n) return std::nullopt;
  return algo + " n=" + format_number(*n);
}

}  // namespace

std::vector<SeriesPoint> extract_series(const std::string& json_text) {
  std::vector<SeriesPoint> out;
  obs::JsonValue doc;
  if (!obs::json_parse(json_text, &doc, nullptr)) return out;
  const obs::JsonArray* series = array_field(doc, "series");
  if (series == nullptr) return out;
  for (const obs::JsonValue& row : *series) {
    const std::optional<std::string> key = series_key(row);
    if (const std::optional<double> rate = number_field(row, "tasks_per_sec");
        key && rate && *rate > 0.0) {
      out.push_back(SeriesPoint{*key, *rate});
      continue;
    }
    // BENCH_obs entries carry two throughputs per workload; surface both
    // arms so an --against join tracks each trend separately.
    const std::string workload = string_field(row, "workload");
    const std::optional<double> n = number_field(row, "n");
    if (workload.empty() || !n) continue;
    const std::string suffix = " n=" + format_number(*n);
    if (const std::optional<double> base =
            number_field(row, "baseline_tasks_per_sec");
        base && *base > 0.0) {
      out.push_back(SeriesPoint{workload + " baseline" + suffix, *base});
    }
    if (const std::optional<double> inst =
            number_field(row, "instrumented_tasks_per_sec");
        inst && *inst > 0.0) {
      out.push_back(SeriesPoint{workload + " instrumented" + suffix, *inst});
    }
  }
  return out;
}

PerfComparison compare_series(const std::string& baseline_json,
                              const std::string& current_json,
                              double tolerance) {
  PerfComparison cmp;
  const std::vector<SeriesPoint> before = extract_series(baseline_json);
  std::vector<SeriesPoint> after = extract_series(current_json);

  // Join by key; order in either document is irrelevant.
  for (const SeriesPoint& b : before) {
    const auto it =
        std::find_if(after.begin(), after.end(), [&](const SeriesPoint& a) {
          return a.key == b.key;
        });
    if (it == after.end()) {
      cmp.missing.push_back(b.key);
      continue;
    }
    const SeriesDelta delta{b.key, b.tasks_per_sec, it->tasks_per_sec};
    after.erase(it);
    if (delta.ratio() < 1.0 - tolerance) {
      cmp.regressed.push_back(delta);
    } else if (delta.ratio() > 1.0 + tolerance) {
      cmp.improved.push_back(delta);
    } else {
      cmp.unchanged.push_back(delta);
    }
  }
  for (const SeriesPoint& a : after) cmp.added.push_back(a.key);

  // Worst regressions first: the first line of the report is the headline.
  std::sort(cmp.regressed.begin(), cmp.regressed.end(),
            [](const SeriesDelta& x, const SeriesDelta& y) {
              return x.ratio() < y.ratio();
            });
  return cmp;
}

std::string format_comparison(const PerfComparison& cmp) {
  std::ostringstream out;
  char buf[192];
  const auto line = [&](const char* verdict, const SeriesDelta& d) {
    std::snprintf(buf, sizeof buf,
                  "%s %s: %.3gM -> %.3gM tasks/s (%+.1f%%)\n", verdict,
                  d.key.c_str(), d.baseline / 1e6, d.current / 1e6,
                  100.0 * (d.ratio() - 1.0));
    out << buf;
  };
  for (const SeriesDelta& d : cmp.regressed) line("REGRESSED", d);
  for (const std::string& key : cmp.missing) {
    out << "MISSING   " << key << ": present in baseline, absent now\n";
  }
  for (const SeriesDelta& d : cmp.improved) line("improved ", d);
  for (const std::string& key : cmp.added) {
    out << "added     " << key << '\n';
  }
  std::snprintf(buf, sizeof buf,
                "%zu regressed, %zu missing, %zu improved, %zu unchanged, "
                "%zu added\n",
                cmp.regressed.size(), cmp.missing.size(), cmp.improved.size(),
                cmp.unchanged.size(), cmp.added.size());
  out << buf;
  return out.str();
}

}  // namespace hp::perf
