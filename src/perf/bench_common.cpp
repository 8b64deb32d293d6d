#include "perf/bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <sstream>
#include <thread>

#ifndef HP_BENCH_COMPILER
#define HP_BENCH_COMPILER "unknown"
#endif
#ifndef HP_BENCH_BUILD_TYPE
#define HP_BENCH_BUILD_TYPE ""
#endif

namespace hp::perf {

namespace {

struct DocNames {
  BenchDoc doc;
  std::string_view name;
  std::string_view schema;
};

// Bump a tag whenever the emitted shape of its document changes: documents
// are compared across versions, and perf-check refuses an unknown tag.
constexpr DocNames kDocNames[] = {
    {BenchDoc::kCore, "core", "hp-bench-core/v5"},
    {BenchDoc::kDag, "dag", "hp-bench-dag/v3"},
    {BenchDoc::kObs, "obs", "hp-bench-obs/v2"},
    {BenchDoc::kOnline, "online", "hp-bench-online/v2"},
    {BenchDoc::kServe, "serve", "hp-bench-serve/v2"},
};

const DocNames& names_of(BenchDoc doc) {
  return *std::find_if(std::begin(kDocNames), std::end(kDocNames),
                       [&](const DocNames& d) { return d.doc == doc; });
}

/// `text` as a JSON string literal.
std::string quoted(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

bool is_true(const obs::JsonValue& obj, const std::string& key) {
  const obs::JsonValue* value = obj.find(key);
  return value != nullptr && value->type() == obs::JsonValue::Type::kBool &&
         value->as_bool();
}

std::string format_value(double value) {
  std::ostringstream out;
  out << value;
  return out.str();
}

/// What `row` breaks of `p`, or "" when it holds.
std::string broken(const Predicate& p, const obs::JsonValue& row) {
  const std::string& f = p.fields.front();
  const std::optional<double> x = number_field(row, f);
  switch (p.check) {
    case Check::kPositive:
      return x && *x > 0.0 ? "" : f + " is not a positive number";
    case Check::kFraction:
      return x && *x >= 0.0 && *x <= 1.0
                 ? ""
                 : f + " is not a fraction in [0, 1]";
    case Check::kFinite:
      return x ? "" : f + " is not a finite number";
    case Check::kTrue:
      return is_true(row, f) ? "" : f + " is not true";
    case Check::kOrdered: {
      const std::optional<double> y = number_field(row, p.fields[1]);
      return x && y && *x <= *y ? "" : f + " <= " + p.fields[1] +
                                           " does not hold";
    }
    case Check::kBalanced: {
      const std::optional<double> y = number_field(row, p.fields[1]);
      const std::optional<double> z = number_field(row, p.fields[2]);
      return x && y && z && *x + *y == *z
                 ? ""
                 : f + " + " + p.fields[1] + " == " + p.fields[2] +
                       " does not hold";
    }
    case Check::kEquals:
      return x && std::abs(*x - p.value) <= 1e-9
                 ? ""
                 : f + " is not " + format_value(p.value);
    case Check::kAtMost:
      return !x || *x <= p.value ? "" : f + " is over " +
                                            format_value(p.value);
    case Check::kIsNot: {
      const std::string s = string_field(row, f);
      return !s.empty() && s != p.text
                 ? ""
                 : f + " is not a string other than '" + p.text + "'";
    }
  }
  return "";
}

}  // namespace

std::string_view doc_name(BenchDoc doc) { return names_of(doc).name; }

std::string_view doc_schema(BenchDoc doc) { return names_of(doc).schema; }

std::optional<BenchDoc> doc_from_name(std::string_view name) {
  for (const DocNames& d : kDocNames) {
    if (d.name == name) return d.doc;
  }
  return std::nullopt;
}

std::optional<BenchDoc> doc_from_schema(std::string_view tag) {
  for (const DocNames& d : kDocNames) {
    if (d.schema == tag) return d.doc;
  }
  return std::nullopt;
}

BenchRow& BenchRow::set(const std::string& name, FieldValue value) {
  const auto it = std::find_if(fields.begin(), fields.end(),
                               [&](const auto& f) { return f.first == name; });
  if (it != fields.end()) {
    it->second = std::move(value);
  } else {
    fields.emplace_back(name, std::move(value));
  }
  return *this;
}

BenchHeader machine_header(const Platform& platform, int repetitions) {
  return BenchHeader{platform, repetitions,
                     static_cast<int>(std::thread::hardware_concurrency()),
                     HP_BENCH_COMPILER, HP_BENCH_BUILD_TYPE};
}

std::string bench_to_json(const BenchDocument& document) {
  const BenchHeader& h = document.header;
  std::ostringstream out;
  out.precision(10);
  out << "{\n  \"schema\": " << quoted(doc_schema(document.doc)) << ",\n"
      << "  \"platform\": {\"cpus\": " << h.platform.cpus()
      << ", \"gpus\": " << h.platform.gpus() << "},\n"
      << "  \"repetitions\": " << h.repetitions << ",\n"
      << "  \"hardware_threads\": " << h.hardware_threads << ",\n"
      << "  \"compiler\": " << quoted(h.compiler) << ",\n"
      << "  \"build_type\": " << quoted(h.build_type) << ",\n"
      << "  \"rows\": [";
  for (std::size_t i = 0; i < document.rows.size(); ++i) {
    const BenchRow& row = document.rows[i];
    out << (i == 0 ? "\n    " : ",\n    ") << "{\"id\": " << quoted(row.id)
        << ", \"per_sec\": " << row.per_sec;
    for (const auto& [name, value] : row.fields) {
      out << ", " << quoted(name) << ": ";
      if (const double* number = std::get_if<double>(&value)) {
        out << *number;
      } else if (const std::string* text = std::get_if<std::string>(&value)) {
        out << quoted(*text);
      } else {
        out << (std::get<bool>(value) ? "true" : "false");
      }
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
  return out.str();
}

std::vector<double> best_seconds(
    int repetitions, const std::vector<std::function<void()>>& arms) {
  using Clock = std::chrono::steady_clock;
  // The untimed warm-up pays first-touch page faults, allocator growth and
  // the clock ramp, none of which belong to the code being measured.
  for (const auto& arm : arms) arm();
  std::vector<double> best(arms.size(),
                           std::numeric_limits<double>::infinity());
  for (int r = 0; r < std::max(1, repetitions); ++r) {
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const auto start = Clock::now();
      arms[a]();
      best[a] = std::min(
          best[a], std::chrono::duration<double>(Clock::now() - start).count());
    }
  }
  return best;
}

std::vector<std::string> validate_bench(const obs::JsonValue& doc,
                                        bool quick) {
  std::vector<std::string> failures;
  const auto fail = [&](const std::string& where, const std::string& what) {
    failures.push_back(where + ": " + what);
  };
  const std::string tag = string_field(doc, "schema");
  const std::optional<BenchDoc> which = doc_from_schema(tag);
  if (!which) {
    std::string known;
    for (const DocNames& d : kDocNames) known += " " + std::string(d.schema);
    fail("header", "unknown schema tag '" + tag + "' (known:" + known + ")");
    return failures;
  }

  const obs::JsonValue* platform = doc.find("platform");
  if (platform == nullptr || !number_field(*platform, "cpus") ||
      !number_field(*platform, "gpus")) {
    fail("header", "platform has no cpus/gpus counts");
  }
  for (const std::string key : {"repetitions", "hardware_threads"}) {
    if (number_field(doc, key).value_or(0.0) <= 0.0) {
      fail("header", key + " is not a positive number");
    }
  }
  if (string_field(doc, "compiler").empty()) {
    fail("header", "compiler is not a non-empty string");
  }
  if (const obs::JsonValue* build = doc.find("build_type");
      build == nullptr || !build->is_string()) {
    fail("header", "build_type is not a string");
  }
  const obs::JsonValue* rows = doc.find("rows");
  if (rows == nullptr || !rows->is_array()) {
    fail("header", "rows is not an array");
    return failures;
  }

  std::vector<std::pair<std::string, const obs::JsonValue*>> by_id;
  const auto find_row = [&](const std::string& id) {
    return std::find_if(by_id.begin(), by_id.end(),
                        [&](const auto& r) { return r.first == id; });
  };
  for (const obs::JsonValue& row : rows->as_array()) {
    const std::string id = string_field(row, "id");
    if (id.empty()) {
      fail("row", "id is not a non-empty string");
    } else if (find_row(id) != by_id.end()) {
      fail(id, "id is not unique");
    } else {
      by_id.emplace_back(id, &row);
      if (number_field(row, "per_sec").value_or(0.0) <= 0.0) {
        fail(id, "per_sec is not a positive number");
      }
    }
  }

  const BenchTable table = bench_table(*which, quick);
  for (const std::string& id : table.ids) {
    if (find_row(id) == by_id.end()) failures.push_back("missing row " + id);
  }
  for (const Predicate& p : table.predicates) {
    if (p.skip_quick && quick) continue;
    for (const auto& [id, row] : by_id) {
      if (!p.row.empty() && p.row != id) continue;
      if (const std::string what = broken(p, *row); !what.empty()) {
        fail(id, what);
      }
    }
  }
  return failures;
}

bool validate_bench_json(const std::string& text, bool quick,
                         std::string* error) {
  obs::JsonValue doc;
  std::string parse_error;
  if (!obs::json_parse(text, &doc, &parse_error)) {
    if (error != nullptr) *error = parse_error;
    return false;
  }
  const std::vector<std::string> failures = validate_bench(doc, quick);
  if (failures.empty()) return true;
  if (error != nullptr) {
    error->clear();
    for (const std::string& f : failures) {
      *error += (error->empty() ? "" : "; ") + f;
    }
  }
  return false;
}

std::string string_field(const obs::JsonValue& obj, const std::string& key) {
  const obs::JsonValue* value = obj.find(key);
  return value != nullptr && value->is_string() ? value->as_string() : "";
}

std::optional<double> number_field(const obs::JsonValue& obj,
                                   const std::string& key) {
  const obs::JsonValue* value = obj.find(key);
  if (value == nullptr || !value->is_number() ||
      !std::isfinite(value->as_number())) {
    return std::nullopt;
  }
  return value->as_number();
}

}  // namespace hp::perf
