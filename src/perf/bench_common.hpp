#pragma once
// One harness for the five BENCH_*.json documents (core, dag, obs, online,
// serve). Every document has the same shape: a header naming the schema,
// the simulated platform, the repetition count and the measuring machine
// (hpbench's fingerprint names), then rows that each carry a string `id`,
// one throughput `per_sec` and named extra fields. One emitter writes every
// document, one best-of loop times every measurement, and one validator
// reads every document against its schema's predicate table.
//
// What differs between documents lives in perf/bench_docs.cpp: the quick
// and full presets, the runners and the predicate tables.

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "model/platform.hpp"
#include "obs/json.hpp"

namespace hp::perf {

/// The five BENCH documents.
enum class BenchDoc { kCore, kDag, kObs, kOnline, kServe };

inline constexpr BenchDoc kAllDocs[] = {BenchDoc::kCore, BenchDoc::kDag,
                                        BenchDoc::kObs, BenchDoc::kOnline,
                                        BenchDoc::kServe};

/// "core", "dag", "obs", "online" or "serve": the `bench_perf` argument and
/// the stem of the committed BENCH_<name>.json.
[[nodiscard]] std::string_view doc_name(BenchDoc doc);
[[nodiscard]] std::optional<BenchDoc> doc_from_name(std::string_view name);

/// The schema tag a document opens with, e.g. "hp-bench-core/v5".
[[nodiscard]] std::string_view doc_schema(BenchDoc doc);
[[nodiscard]] std::optional<BenchDoc> doc_from_schema(std::string_view tag);

/// What a run of one document is parameterised by; everything else it
/// measures is a constant of its runner.
struct BenchOptions {
  /// Timed repetitions per measurement, after one untimed warm-up.
  int repetitions = 1;
  /// Tasks per instance: core's instance sizes, the obs and online
  /// instance, serve's tasks per request.
  std::vector<std::size_t> sizes{};
  /// Tile counts: the dag kernels, core's DAG sweep, the obs Cholesky DAG.
  std::vector<int> tiles{};
  int requests_per_client = 0;  ///< serve only
};

/// The full or `--quick` preset of `doc`. `bench_perf` runs it, and
/// `perf-check` derives the expected row ids from it.
[[nodiscard]] BenchOptions bench_options(BenchDoc doc, bool quick);

/// A named extra field of a row.
using FieldValue = std::variant<double, std::string, bool>;

struct BenchRow {
  std::string id;
  double per_sec = 0.0;  ///< tasks/s, or requests/s for serve
  std::vector<std::pair<std::string, FieldValue>> fields{};

  /// Set (or append) one extra field; returns *this for chaining.
  BenchRow& set(const std::string& name, FieldValue value);
};

struct BenchHeader {
  Platform platform{20, 4};
  int repetitions = 0;
  int hardware_threads = 0;
  std::string compiler;
  std::string build_type;
};

/// A header for a run on this machine: its hardware threads, and the
/// compiler and build type this library was built with.
[[nodiscard]] BenchHeader machine_header(const Platform& platform,
                                         int repetitions);

struct BenchDocument {
  BenchDoc doc = BenchDoc::kCore;
  BenchHeader header;
  std::vector<BenchRow> rows;
};

/// Run every measurement of `doc`, with one progress line per row on
/// stderr. Workloads are deterministic; wall-clock figures vary with the
/// host.
[[nodiscard]] BenchDocument run_bench(BenchDoc doc,
                                      const BenchOptions& options);

/// The document as JSON text, numbers at 10 significant digits.
[[nodiscard]] std::string bench_to_json(const BenchDocument& document);

/// Best wall-clock seconds of each arm. Every arm runs once untimed, then
/// `repetitions` times interleaved (arm 0, arm 1, ..., arm 0, ...), so slow
/// drift such as a clock ramp biases no arm.
[[nodiscard]] std::vector<double> best_seconds(
    int repetitions, const std::vector<std::function<void()>>& arms);

/// The typed checks a predicate table is made of.
enum class Check {
  kPositive,  ///< a finite number > 0
  kFraction,  ///< a finite number in [0, 1]
  kFinite,    ///< a finite number
  kTrue,      ///< the literal `true`
  kOrdered,   ///< fields[0] <= fields[1], both finite numbers
  kBalanced,  ///< fields[0] + fields[1] == fields[2], all finite numbers
  kEquals,    ///< a number within 1e-9 of `value`
  kAtMost,    ///< <= `value` if a finite number; pair it with kFinite
  kIsNot,     ///< a non-empty string other than `text`
};

struct Predicate {
  Check check = Check::kFinite;
  std::vector<std::string> fields{};
  /// Empty: a row predicate, checked on every row. A row id: a document
  /// predicate about that one row.
  std::string row{};
  double value = 0.0;
  std::string text{};
  bool skip_quick = false;  ///< not checked on a `--quick` document
};

struct BenchTable {
  std::vector<std::string> ids;  ///< rows a run of the preset emits
  std::vector<Predicate> predicates;
};

/// The predicate table of `doc` for its full or `--quick` preset.
[[nodiscard]] BenchTable bench_table(BenchDoc doc, bool quick);

/// Every failing check of a parsed document, each naming its row (or
/// "header") and field. Beyond the table, every document needs a known
/// schema tag, the full header, a `rows` array, and rows with a unique
/// non-empty `id` and a positive `per_sec`.
[[nodiscard]] std::vector<std::string> validate_bench(
    const obs::JsonValue& doc, bool quick);

/// Parse `text` as strict JSON and validate it. On failure `*error` holds
/// every failing check, separated by "; ".
bool validate_bench_json(const std::string& text, bool quick,
                         std::string* error);

/// The string at `obj.key`, or "" when absent or not a string.
[[nodiscard]] std::string string_field(const obs::JsonValue& obj,
                                       const std::string& key);

/// The number at `obj.key`, or nullopt when absent, not a number or not
/// finite.
[[nodiscard]] std::optional<double> number_field(const obs::JsonValue& obj,
                                                 const std::string& key);

}  // namespace hp::perf
