#include "perf/bench_common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "model/generators.hpp"
#include "util/rng.hpp"

namespace hp::perf {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Instance make_instance(std::size_t n) {
  util::Rng rng(util::seed_from_cell({static_cast<std::uint64_t>(n)}));
  UniformGenParams params;
  params.num_tasks = n;
  return uniform_instance(params, rng);
}

std::ostringstream open_document(const DocHeader& header) {
  std::ostringstream out;
  out.precision(10);
  out << "{\n  \"schema\": \"" << header.schema << "\",\n";
  if (header.soa_layout) out << "  \"layout\": \"soa\",\n";
  out << "  \"platform\": {\"cpus\": " << header.platform.cpus()
      << ", \"gpus\": " << header.platform.gpus() << "},\n";
  if (header.hardware_threads.has_value()) {
    out << "  \"hardware_threads\": " << *header.hardware_threads << ",\n";
  }
  out << "  \"repetitions\": " << header.repetitions << ",\n";
  return out;
}

bool parse_bench_json(const std::string& text, std::string_view schema,
                      obs::JsonValue* doc, std::string* error) {
  if (!obs::json_parse(text, doc, error)) return false;
  if (string_field(*doc, "schema") != schema) {
    if (error != nullptr) {
      *error = "missing or wrong schema tag (want " + std::string(schema) +
               ")";
    }
    return false;
  }
  return true;
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

bool true_field(const obs::JsonValue& obj, const std::string& key) {
  const obs::JsonValue* value = obj.find(key);
  return value != nullptr && value->type() == obs::JsonValue::Type::kBool &&
         value->as_bool();
}

const obs::JsonArray* array_field(const obs::JsonValue& obj,
                                  const std::string& key) {
  const obs::JsonValue* value = obj.find(key);
  return value != nullptr && value->is_array() ? &value->as_array() : nullptr;
}

std::string missing_series(const std::vector<std::string>& expected,
                           const std::vector<std::string>& seen) {
  // Name every absent series, not just the first: a perf-check failure
  // should tell the whole story in one run.
  std::string missing;
  for (const std::string& key : expected) {
    if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
    missing += (missing.empty() ? "missing series: " : ", ") + key;
  }
  return missing;
}

std::string format_number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace hp::perf
