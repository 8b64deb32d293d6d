#include "perf/perf_compare.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <sstream>

#include "perf/bench_common.hpp"

namespace hp::perf {

std::vector<SeriesPoint> extract_series(const obs::JsonValue& doc) {
  std::vector<SeriesPoint> out;
  const obs::JsonValue* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) return out;
  for (const obs::JsonValue& row : rows->as_array()) {
    const std::string id = string_field(row, "id");
    if (const std::optional<double> rate = number_field(row, "per_sec");
        !id.empty() && rate && *rate > 0.0) {
      out.push_back(SeriesPoint{id, *rate});
    }
  }
  return out;
}

PerfComparison compare_series(const obs::JsonValue& baseline,
                              const obs::JsonValue& current,
                              double tolerance) {
  PerfComparison cmp;
  const std::vector<SeriesPoint> before = extract_series(baseline);
  std::vector<SeriesPoint> after = extract_series(current);

  // Join by id; order in either document is irrelevant.
  for (const SeriesPoint& b : before) {
    const auto it =
        std::find_if(after.begin(), after.end(), [&](const SeriesPoint& a) {
          return a.key == b.key;
        });
    if (it == after.end()) {
      cmp.missing.push_back(b.key);
      continue;
    }
    const SeriesDelta delta{b.key, b.per_sec, it->per_sec};
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
    std::snprintf(buf, sizeof buf, "%s %s: %.4g -> %.4g /s (%+.1f%%)\n",
                  verdict, d.key.c_str(), d.baseline, d.current,
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
