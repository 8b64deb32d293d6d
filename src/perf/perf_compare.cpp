#include "perf/perf_compare.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "perf/json_scan.hpp"

namespace hp::perf {

namespace {

/// Identity of one series entry, or nullopt for malformed entries.
std::optional<std::string> series_key(const std::string& obj) {
  const std::string algo = jsonscan::string_field(obj, "algorithm").value_or("");
  if (algo.empty()) return std::nullopt;
  if (const auto kernel = jsonscan::string_field(obj, "kernel");
      kernel.has_value()) {
    const auto tiles = jsonscan::number_field(obj, "tiles");
    if (!tiles.has_value()) return std::nullopt;
    return *kernel + "/" + algo +
           " N=" + std::to_string(static_cast<long long>(*tiles));
  }
  const auto n = jsonscan::number_field(obj, "n");
  if (!n.has_value()) return std::nullopt;
  return algo + " n=" + std::to_string(static_cast<long long>(*n));
}

}  // namespace

std::vector<SeriesPoint> extract_series(const std::string& json_text) {
  std::vector<SeriesPoint> out;
  jsonscan::for_each_array_object(
      json_text, "series", [&](const std::string& obj) {
        const auto key = series_key(obj);
        if (const auto rate = jsonscan::number_field(obj, "tasks_per_sec");
            key.has_value() && rate.has_value() && *rate > 0.0) {
          out.push_back(SeriesPoint{*key, *rate});
          return;
        }
        // BENCH_obs entries carry two throughputs per workload; surface
        // both arms so an --against join tracks each trend separately.
        const std::string workload =
            jsonscan::string_field(obj, "workload").value_or("");
        const auto n = jsonscan::number_field(obj, "n");
        if (workload.empty() || !n.has_value()) return;
        const std::string suffix =
            " n=" + std::to_string(static_cast<long long>(*n));
        if (const auto base =
                jsonscan::number_field(obj, "baseline_tasks_per_sec");
            base.has_value() && *base > 0.0) {
          out.push_back(SeriesPoint{workload + " baseline" + suffix, *base});
        }
        if (const auto inst =
                jsonscan::number_field(obj, "instrumented_tasks_per_sec");
            inst.has_value() && *inst > 0.0) {
          out.push_back(
              SeriesPoint{workload + " instrumented" + suffix, *inst});
        }
      });
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
