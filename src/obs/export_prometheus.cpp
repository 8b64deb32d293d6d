#include "obs/export_prometheus.hpp"

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>

namespace hp::obs {

namespace {

bool name_start_char(char c) noexcept {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':';
}

bool name_char(char c) noexcept {
  return name_start_char(c) || std::isdigit(static_cast<unsigned char>(c));
}

/// Prepended to every family name (namespacing per convention).
constexpr const char* kPrefix = "hp_";

/// Quantiles emitted per histogram alongside the bucket series.
constexpr double kQuantiles[] = {0.5, 0.9, 0.99};

std::string sanitize(const std::string& name) {
  std::string out = kPrefix + name;  // the prefix makes the first char legal
  for (char& c : out) {
    if (!name_char(c)) c = '_';
  }
  return out;
}

std::string number(double value) {
  std::ostringstream oss;
  oss.precision(12);
  oss << value;
  return oss.str();
}

void append_family(std::ostringstream& out, const std::string& name,
                   const char* type, const char* help) {
  out << "# HELP " << name << ' ' << help << '\n';
  out << "# TYPE " << name << ' ' << type << '\n';
}

void append_histogram(std::ostringstream& out, const std::string& name,
                      const Histogram& hist) {
  append_family(out, name, "histogram",
                "log-linear histogram (see docs/observability.md)");
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i + 1 < hist.num_buckets(); ++i) {
    if (hist.bucket_count(i) == 0) continue;
    cumulative += hist.bucket_count(i);
    out << name << "_bucket{le=\"" << number(hist.bucket_upper(i)) << "\"} "
        << cumulative << '\n';
  }
  out << name << "_bucket{le=\"+Inf\"} " << hist.count() << '\n';
  out << name << "_sum " << number(hist.sum()) << '\n';
  out << name << "_count " << hist.count() << '\n';

  append_family(out, name + "_quantile", "gauge",
                "bucket-upper-bound quantile estimates");
  for (const double q : kQuantiles) {
    out << name << "_quantile{quantile=\"" << number(q) << "\"} "
        << number(hist.quantile(q)) << '\n';
  }
  append_family(out, name + "_max", "gauge", "exact observed maximum");
  out << name << "_max " << number(hist.max()) << '\n';
}

}  // namespace

std::string prometheus_text(const MetricsRegistry& registry) {
  std::ostringstream out;
  for (const auto& entry : registry.counters()) {
    const std::string name = sanitize(entry.name);
    append_family(out, name, "counter", "scheduler counter");
    out << name << ' ' << number(entry.value) << '\n';
  }
  for (const auto& entry : registry.gauges()) {
    const std::string name = sanitize(entry.name);
    append_family(out, name, "gauge", "scheduler gauge");
    out << name << ' ' << number(entry.value) << '\n';
  }
  for (const auto& entry : registry.histograms()) {
    append_histogram(out, sanitize(entry.name), entry.histogram);
  }
  return out.str();
}

namespace {

/// Splits a sample line into name / optional labels / value, validating
/// each part. Returns false with `*why` set on malformed lines.
bool check_sample_line(const std::string& line,
                       const std::map<std::string, std::string>& types,
                       std::string* family_out, std::string* why) {
  std::size_t at = 0;
  if (at >= line.size() || !name_start_char(line[at])) {
    *why = "sample does not start with a metric name";
    return false;
  }
  while (at < line.size() && name_char(line[at])) ++at;
  const std::string name = line.substr(0, at);

  if (at < line.size() && line[at] == '{') {
    const std::size_t close = line.find('}', at);
    if (close == std::string::npos) {
      *why = "unterminated label set";
      return false;
    }
    // Labels: key="value"[,key="value"]*; empty label sets are legal.
    std::string labels = line.substr(at + 1, close - at - 1);
    while (!labels.empty()) {
      const std::size_t eq = labels.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 >= labels.size() ||
          labels[eq + 1] != '"') {
        *why = "malformed label in " + name;
        return false;
      }
      const std::size_t endq = labels.find('"', eq + 2);
      if (endq == std::string::npos) {
        *why = "unterminated label value in " + name;
        return false;
      }
      std::size_t next = endq + 1;
      if (next < labels.size()) {
        if (labels[next] != ',') {
          *why = "expected ',' between labels in " + name;
          return false;
        }
        ++next;
      }
      labels.erase(0, next);
    }
    at = close + 1;
  }

  if (at >= line.size() || (line[at] != ' ' && line[at] != '\t')) {
    *why = "no value after metric name " + name;
    return false;
  }
  while (at < line.size() && (line[at] == ' ' || line[at] == '\t')) ++at;
  const std::string value = line.substr(at);
  if (value != "+Inf" && value != "-Inf" && value != "NaN") {
    char* end = nullptr;
    (void)std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0') {
      *why = "unparsable value '" + value + "' for " + name;
      return false;
    }
  }

  // A histogram family declares `f` and emits f_bucket/f_sum/f_count.
  std::string family = name;
  for (const char* suffix : {"_bucket", "_sum", "_count"}) {
    const std::string s(suffix);
    if (family.size() > s.size() &&
        family.compare(family.size() - s.size(), s.size(), s) == 0) {
      const std::string base = family.substr(0, family.size() - s.size());
      const auto it = types.find(base);
      if (it != types.end() && it->second == "histogram") {
        family = base;
        break;
      }
    }
  }
  *family_out = family;
  return true;
}

}  // namespace

bool validate_prometheus_text(const std::string& text, std::string* error) {
  const auto fail = [&](std::size_t line_no, const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };

  std::map<std::string, std::string> types;  // family -> declared type
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  std::size_t samples = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line);
      std::string hash, keyword, name, rest;
      comment >> hash >> keyword >> name;
      if (keyword == "TYPE") {
        comment >> rest;
        if (rest != "counter" && rest != "gauge" && rest != "histogram" &&
            rest != "summary" && rest != "untyped") {
          return fail(line_no, "unknown TYPE '" + rest + "'");
        }
        if (name.empty()) return fail(line_no, "TYPE without a name");
        types[name] = rest;
      } else if (keyword != "HELP") {
        return fail(line_no, "comment is neither HELP nor TYPE");
      }
      continue;
    }
    std::string family, why;
    if (!check_sample_line(line, types, &family, &why)) {
      return fail(line_no, why);
    }
    if (types.find(family) == types.end()) {
      return fail(line_no, "sample for undeclared family '" + family + "'");
    }
    ++samples;
  }
  if (samples == 0) return fail(line_no, "document has no samples");
  return true;
}

}  // namespace hp::obs
