// perf-check reporting (perf/perf_compare.hpp) and the BENCH validators:
// series are joined by identity across reordered documents, regressions and
// disappearances are named with deltas, and the validators list every
// missing series instead of failing on the first. The validators read
// strict JSON: text that does not parse, non-finite numbers and fields
// outside their real path are rejected.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "perf/perf_baseline.hpp"
#include "perf/perf_compare.hpp"
#include "perf/perf_dag.hpp"
#include "perf/perf_online.hpp"
#include "perf/perf_serve.hpp"

namespace hp::perf {
namespace {

std::string core_doc(double hp_rate, double heft_rate, bool with_dual = true) {
  std::string out = R"({
  "schema": "hp-bench-core/v4",
  "layout": "soa",
  "hardware_threads": 8,
  "arena": {"reserved_bytes": 1048576, "high_water_bytes": 524288},
  "series": [
)";
  out += "    {\"algorithm\": \"HeteroPrio\", \"n\": 1000, \"tasks_per_sec\": " +
         std::to_string(hp_rate) + "},\n";
  if (with_dual) {
    out += "    {\"algorithm\": \"DualHP\", \"n\": 1000, \"tasks_per_sec\": "
           "200000.0},\n";
  }
  out += "    {\"algorithm\": \"HEFT\", \"n\": 1000, \"tasks_per_sec\": " +
         std::to_string(heft_rate) + "}\n  ]\n}\n";
  return out;
}

TEST(PerfCompare, IdenticalDocumentsAreUnchanged) {
  const std::string doc = core_doc(1e7, 5e6);
  const PerfComparison cmp = compare_series(doc, doc, 0.25);
  EXPECT_TRUE(cmp.ok());
  EXPECT_TRUE(cmp.regressed.empty());
  EXPECT_TRUE(cmp.missing.empty());
  EXPECT_EQ(cmp.unchanged.size(), 3u);
}

TEST(PerfCompare, NamesTheRegressedSeriesWithDelta) {
  const PerfComparison cmp =
      compare_series(core_doc(1e7, 5e6), core_doc(4e6, 5e6), 0.25);
  EXPECT_FALSE(cmp.ok());
  ASSERT_EQ(cmp.regressed.size(), 1u);
  EXPECT_EQ(cmp.regressed[0].key, "HeteroPrio n=1000");
  EXPECT_DOUBLE_EQ(cmp.regressed[0].baseline, 1e7);
  EXPECT_DOUBLE_EQ(cmp.regressed[0].current, 4e6);

  const std::string text = format_comparison(cmp);
  EXPECT_NE(text.find("REGRESSED HeteroPrio n=1000"), std::string::npos);
  EXPECT_NE(text.find("10M -> 4M"), std::string::npos);
}

TEST(PerfCompare, NamesMissingSeries) {
  const PerfComparison cmp =
      compare_series(core_doc(1e7, 5e6, /*with_dual=*/true),
                     core_doc(1e7, 5e6, /*with_dual=*/false), 0.25);
  EXPECT_FALSE(cmp.ok());
  ASSERT_EQ(cmp.missing.size(), 1u);
  EXPECT_EQ(cmp.missing[0], "DualHP n=1000");
  EXPECT_NE(format_comparison(cmp).find("MISSING"), std::string::npos);
}

TEST(PerfCompare, ToleratesReorderedSeries) {
  // Same entries, reversed order: everything joins by key, nothing flags.
  const std::string forward = core_doc(1e7, 5e6);
  const std::string reversed = R"({
  "schema": "hp-bench-core/v4",
  "layout": "soa",
  "hardware_threads": 8,
  "arena": {"reserved_bytes": 1048576, "high_water_bytes": 524288},
  "series": [
    {"algorithm": "HEFT", "n": 1000, "tasks_per_sec": 5000000.0},
    {"algorithm": "DualHP", "n": 1000, "tasks_per_sec": 200000.0},
    {"algorithm": "HeteroPrio", "n": 1000, "tasks_per_sec": 10000000.0}
  ]
}
)";
  const PerfComparison cmp = compare_series(forward, reversed, 0.25);
  EXPECT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.unchanged.size(), 3u);
  EXPECT_TRUE(cmp.missing.empty());
  EXPECT_TRUE(cmp.added.empty());
}

TEST(PerfCompare, ImprovementsAndAdditionsAreReportedNotFatal) {
  std::string current = core_doc(3e7, 5e6);
  current.replace(current.rfind("]"), 1,
                  ",    {\"algorithm\": \"HeteroPrio\", \"n\": 5000, "
                  "\"tasks_per_sec\": 9000000.0}\n  ]");
  const PerfComparison cmp = compare_series(core_doc(1e7, 5e6), current, 0.25);
  EXPECT_TRUE(cmp.ok());  // improvements and additions never fail the gate
  EXPECT_EQ(cmp.improved.size(), 1u);
  ASSERT_EQ(cmp.added.size(), 1u);
  EXPECT_EQ(cmp.added[0], "HeteroPrio n=5000");
}

TEST(PerfValidate, AcceptsCompleteV4CoreDocument) {
  std::string error;
  EXPECT_TRUE(validate_perf_baseline_json(core_doc(1e7, 5e6), {1000}, &error))
      << error;
}

TEST(PerfValidate, ListsAllMissingCoreSeries) {
  // Document has n=1000 only; asking for {1000, 2000} must name every
  // absent (algorithm, n) pair, not just the first one encountered.
  std::string error;
  EXPECT_FALSE(
      validate_perf_baseline_json(core_doc(1e7, 5e6), {1000, 2000}, &error));
  EXPECT_NE(error.find("HeteroPrio at n=2000"), std::string::npos) << error;
  EXPECT_NE(error.find("DualHP at n=2000"), std::string::npos) << error;
  EXPECT_NE(error.find("HEFT at n=2000"), std::string::npos) << error;
}

TEST(PerfValidate, RejectsOldSchemaMissingArenaAndMissingHardwareThreads) {
  std::string error;
  std::string doc = core_doc(1e7, 5e6);
  std::string v3 = doc;
  v3.replace(v3.find("hp-bench-core/v4"), 16, "hp-bench-core/v3");
  EXPECT_FALSE(validate_perf_baseline_json(v3, {1000}, &error));
  EXPECT_NE(error.find("schema"), std::string::npos);

  std::string no_arena = doc;
  no_arena.replace(no_arena.find("high_water_bytes"), 16, "other_field_name");
  EXPECT_FALSE(validate_perf_baseline_json(no_arena, {1000}, &error));

  std::string no_hw = doc;
  no_hw.replace(no_hw.find("hardware_threads"), 16, "other_field_name");
  EXPECT_FALSE(validate_perf_baseline_json(no_hw, {1000}, &error));
  EXPECT_NE(error.find("hardware_threads"), std::string::npos) << error;

  // The arena footprint is read at arena.high_water_bytes, not wherever a
  // field of that name happens to appear.
  std::string arena_elsewhere = doc;
  arena_elsewhere.replace(arena_elsewhere.find("\"arena\": {"), 10,
                          "\"other\": {");
  EXPECT_FALSE(validate_perf_baseline_json(arena_elsewhere, {1000}, &error));
  EXPECT_NE(error.find("arena"), std::string::npos) << error;

  // A NaN throughput is not a measurement (and not JSON); neither is one
  // that overflows to infinity.
  std::string nan_rate = core_doc(1e7, 5e6);
  nan_rate.replace(nan_rate.find("10000000.000000"), 15, "nan");
  EXPECT_FALSE(validate_perf_baseline_json(nan_rate, {1000}, &error));
  std::string inf_rate = core_doc(1e7, 5e6);
  inf_rate.replace(inf_rate.find("10000000.000000"), 15, "1e999");
  EXPECT_FALSE(validate_perf_baseline_json(inf_rate, {1000}, &error));

  // Balanced braces are not enough: the document must be strict JSON.
  std::string double_comma = doc;
  double_comma.replace(double_comma.find("\"soa\","), 6, "\"soa\",,");
  EXPECT_FALSE(validate_perf_baseline_json(double_comma, {1000}, &error));
}

std::string dag_doc(bool with_heft) {
  std::string out = R"({
  "schema": "hp-bench-dag/v2",
  "layout": "soa",
  "series": [
    {"kernel": "cholesky", "tiles": 10, "algorithm": "HeteroPrio",
     "n": 220, "tasks_per_sec": 300000.0,
     "cp_compute_fraction": 0.85, "cp_segments": 40},
    {"kernel": "cholesky", "tiles": 10, "algorithm": "DualHP",
     "n": 220, "tasks_per_sec": 250000.0,
     "cp_compute_fraction": 0.8, "cp_segments": 44}
)";
  if (with_heft) {
    out += R"(,    {"kernel": "cholesky", "tiles": 10, "algorithm": "HEFT",
     "n": 220, "tasks_per_sec": 400000.0,
     "cp_compute_fraction": 0.9, "cp_segments": 38}
)";
  }
  out += "  ]\n}\n";
  return out;
}

TEST(PerfValidate, DagValidatorChecksCpFieldsAndListsMissing) {
  std::string error;
  EXPECT_TRUE(validate_perf_dag_json(dag_doc(true), {"cholesky"}, {10}, &error))
      << error;
  EXPECT_FALSE(
      validate_perf_dag_json(dag_doc(false), {"cholesky"}, {10}, &error));
  EXPECT_NE(error.find("HEFT"), std::string::npos) << error;

  // cp_compute_fraction outside [0, 1] is a malformed v2 document.
  std::string bad = dag_doc(true);
  bad.replace(bad.find("0.85"), 4, "1.85");
  EXPECT_FALSE(validate_perf_dag_json(bad, {"cholesky"}, {10}, &error));

  // NaN compares false against both ends of the range; it must still fail.
  std::string nan_cp = dag_doc(true);
  nan_cp.replace(nan_cp.find("0.85"), 4, "nan");
  EXPECT_FALSE(validate_perf_dag_json(nan_cp, {"cholesky"}, {10}, &error));
}

std::string online_doc(const std::string& zero_drop) {
  return R"({
  "schema": "hp-bench-online/v1",
  "series": [
    {"label": "rate-0x", "makespan_stretch": 1, "deadline_miss_rate": 0.01,
     "shed_fraction": 0, "replan_tasks_per_sec": 2000000,
     "final_mode": "degraded", "zero_drop": true},
    {"label": "saturating", "makespan_stretch": 1.5,
     "deadline_miss_rate": 0.2, "shed_fraction": 0.3,
     "replan_tasks_per_sec": 900000, "final_mode": "shedding", )" +
         zero_drop + R"(}
  ]
}
)";
}

TEST(PerfValidate, OnlineValidatorChecksInvariants) {
  std::string error;
  EXPECT_TRUE(validate_perf_online_json(online_doc("\"zero_drop\": true"),
                                        &error))
      << error;
  // Any JSON spacing of the zero-drop flag is the same document.
  EXPECT_TRUE(validate_perf_online_json(online_doc("\"zero_drop\":true"),
                                        &error))
      << error;
  EXPECT_FALSE(validate_perf_online_json(online_doc("\"zero_drop\": false"),
                                         &error));
  EXPECT_NE(error.find("saturating does not assert zero_drop"),
            std::string::npos)
      << error;

  std::string nan_miss = online_doc("\"zero_drop\": true");
  nan_miss.replace(nan_miss.find("0.01"), 4, "nan");
  EXPECT_FALSE(validate_perf_online_json(nan_miss, &error));
}

std::string serve_doc(const std::string& zero_drop,
                      const std::string& saturating_counts) {
  return R"({
  "schema": "hp-bench-serve/v1",
  "series": [
    {"label": "workers-1", "submitted": 256, "completed": 256,
     "rejected": 0, "requests_per_sec": 14000, "p50_latency_ms": 0.3,
     "p99_latency_ms": 1.2, "zero_drop": true},
    {"label": "saturating", )" +
         saturating_counts + R"("requests_per_sec": 9000,
     "p50_latency_ms": 0.1, "p99_latency_ms": 2.5, )" +
         zero_drop + R"(}
  ]
}
)";
}

TEST(PerfValidate, ServeValidatorChecksAccounting) {
  const std::string counts =
      R"("submitted": 256, "completed": 200, "rejected": 56, )";
  std::string error;
  EXPECT_TRUE(validate_perf_serve_json(
      serve_doc("\"zero_drop\": true", counts), &error))
      << error;
  EXPECT_TRUE(validate_perf_serve_json(
      serve_doc("\"zero_drop\":true", counts), &error))
      << error;
  EXPECT_FALSE(validate_perf_serve_json(
      serve_doc("\"zero_drop\": false", counts), &error));

  // The accounting identity completed + rejected == submitted needs all
  // three counts; a row without them cannot show it holds.
  EXPECT_FALSE(validate_perf_serve_json(
      serve_doc("\"zero_drop\": true", R"("completed": 200, "rejected": 56, )"),
      &error));
  EXPECT_NE(error.find("saturating"), std::string::npos) << error;
  EXPECT_FALSE(validate_perf_serve_json(
      serve_doc("\"zero_drop\": true",
                R"("submitted": 256, "completed": 199, "rejected": 56, )"),
      &error));
}

TEST(PerfCompare, DagSeriesKeysUseKernelAndTiles) {
  const std::vector<SeriesPoint> points = extract_series(dag_doc(true));
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].key, "cholesky/HeteroPrio N=10");
}

}  // namespace
}  // namespace hp::perf
