#pragma once
// What the five BENCH_*.json drivers (perf_baseline, perf_dag, perf_obs,
// perf_online, perf_serve) share, written once: the measurement helpers,
// the document header and row framing of the emitters, and the strict
// reading of a document through obs::json_parse for the validators and
// `hp_sched perf-check`. Every field is read at its real path in the parsed
// document; a file that is not strict JSON, or that holds a non-finite
// number where a measurement belongs, is rejected.

#include <chrono>
#include <cstddef>
#include <optional>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "model/instance.hpp"
#include "model/platform.hpp"
#include "obs/json.hpp"

namespace hp::perf {

using Clock = std::chrono::steady_clock;

/// Wall-clock seconds elapsed since `start`.
[[nodiscard]] double seconds_since(Clock::time_point start);

/// The reference independent workload: `n` uniform tasks seeded from n, so
/// every document measuring size n measures the same instance.
[[nodiscard]] Instance make_instance(std::size_t n);

/// The fields every BENCH document opens with, in emission order.
struct DocHeader {
  std::string_view schema;
  Platform platform{20, 4};
  int repetitions = 0;
  bool soa_layout = false;                ///< `"layout": "soa"` (core, dag)
  std::optional<int> hardware_threads{};  ///< core only
};

/// A stream holding `{` and one `"field": value,` line per header field,
/// set to the 10 significant digits every emitter prints. The caller
/// appends its own fields and closes the document.
[[nodiscard]] std::ostringstream open_document(const DocHeader& header);

/// Write `  "key": [`, then `\n    ` + `row(out, r)` for each row with
/// commas between rows, then `\n  ]`.
template <typename Row, typename Fn>
void write_rows(std::ostream& out, std::string_view key,
                const std::vector<Row>& rows, Fn&& row) {
  out << "  \"" << key << "\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << (i == 0 ? "\n    " : ",\n    ");
    row(out, rows[i]);
  }
  out << "\n  ]";
}

/// Parse `text` as strict JSON whose root object carries `"schema":
/// schema`. On failure returns false with the reason in `*error`.
bool parse_bench_json(const std::string& text, std::string_view schema,
                      obs::JsonValue* doc, std::string* error);

/// The string at `obj.key`, or "" when absent or not a string.
[[nodiscard]] std::string string_field(const obs::JsonValue& obj,
                                       const std::string& key);

/// The number at `obj.key`, or nullopt when absent, not a number or not
/// finite.
[[nodiscard]] std::optional<double> number_field(const obs::JsonValue& obj,
                                                 const std::string& key);

/// True only when `obj.key` is the literal `true`.
[[nodiscard]] bool true_field(const obs::JsonValue& obj,
                              const std::string& key);

/// The rows of the array at `obj.key`, or nullptr when absent or not an
/// array.
[[nodiscard]] const obs::JsonArray* array_field(const obs::JsonValue& obj,
                                                const std::string& key);

/// `"missing series: a, b"` naming every entry of `expected` absent from
/// `seen`, or "" when none is missing.
[[nodiscard]] std::string missing_series(
    const std::vector<std::string>& expected,
    const std::vector<std::string>& seen);

/// A number as it appears in a series identity: 1000, 0.5, 1e+20.
[[nodiscard]] std::string format_number(double value);

}  // namespace hp::perf
