// perf-check reporting (perf/perf_compare.hpp) and the BENCH validator
// (perf/bench_common.hpp): rows are joined by id across reordered
// documents, regressions and disappearances are named with deltas, an empty
// join fails, and the validator reads strict JSON against each schema's
// predicate table, naming every failing row and field. Every predicate of
// every table has a negative case that breaks it alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "perf/bench_common.hpp"
#include "perf/perf_compare.hpp"

namespace hp::perf {
namespace {

BenchRow& row_of(BenchDocument& d, const std::string& id) {
  const auto it = std::find_if(d.rows.begin(), d.rows.end(),
                               [&](const BenchRow& r) { return r.id == id; });
  EXPECT_NE(it, d.rows.end()) << id;
  return *it;
}

double number_of(const BenchRow& row, const std::string& field) {
  for (const auto& [name, value] : row.fields) {
    if (name == field) return std::get<double>(value);
  }
  ADD_FAILURE() << row.id << " has no " << field;
  return 0.0;
}

/// A full-preset document of `doc` that passes every check.
BenchDocument valid_document(BenchDoc doc) {
  BenchDocument d{doc, BenchHeader{Platform(20, 4), 3, 8, "GNU 12.2.0",
                                   "Release"},
                  {}};
  for (const std::string& id : bench_table(doc, false).ids) {
    BenchRow row{id, 1e6};
    const bool saturating = id == "saturating";
    switch (doc) {
      case BenchDoc::kCore:
        break;
      case BenchDoc::kDag:
        row.set("cp_compute_fraction", 0.9);
        break;
      case BenchDoc::kObs:
        if (id.ends_with("/instrumented")) row.set("overhead_fraction", 0.01);
        break;
      case BenchDoc::kOnline:
        row.set("makespan_stretch", 1.0)
            .set("deadline_miss_rate", 0.1)
            .set("shed_fraction", saturating ? 0.5 : 0.0)
            .set("final_mode", std::string("degraded"))
            .set("zero_drop", true);
        break;
      case BenchDoc::kServe:
        row.set("submitted", 100.0)
            .set("completed", saturating ? 60.0 : 100.0)
            .set("rejected", saturating ? 40.0 : 0.0)
            .set("p50_latency_ms", 0.5)
            .set("p99_latency_ms", 2.0)
            .set("zero_drop", true);
        break;
    }
    d.rows.push_back(row);
  }
  if (doc == BenchDoc::kCore) {
    row_of(d, "HeteroPrio/n=10000")
        .set("arena_high_water_bytes", 4e6)
        .set("speedup_vs_reference", 10.0);
  }
  return d;
}

std::vector<std::string> failures_of(const std::string& text,
                                     bool quick = false) {
  obs::JsonValue doc;
  std::string error;
  if (!obs::json_parse(text, &doc, &error)) return {"parse: " + error};
  return validate_bench(doc, quick);
}

std::vector<std::string> failures_of(const BenchDocument& d,
                                     bool quick = false) {
  return failures_of(bench_to_json(d), quick);
}

std::string joined(const std::vector<std::string>& failures) {
  std::string out;
  for (const std::string& f : failures) out += f + "\n";
  return out;
}

/// Change one row so that it breaks `p` and nothing else.
void break_predicate(BenchRow& row, const Predicate& p) {
  const std::string& f = p.fields.front();
  switch (p.check) {
    case Check::kPositive:
      row.set(f, 0.0);
      // Keep completed + rejected == submitted when shedding nothing.
      if (f == "rejected") row.set("submitted", number_of(row, "completed"));
      break;
    case Check::kFraction: row.set(f, 1.5); break;
    case Check::kFinite: row.set(f, std::string("x")); break;
    case Check::kTrue: row.set(f, false); break;
    case Check::kOrdered: {
      const double a = number_of(row, f);
      row.set(f, number_of(row, p.fields[1])).set(p.fields[1], a);
      break;
    }
    case Check::kBalanced: row.set(f, number_of(row, f) + 1.0); break;
    case Check::kEquals: row.set(f, p.value + 0.5); break;
    case Check::kAtMost: row.set(f, p.value + 1.0); break;
    case Check::kIsNot: row.set(f, p.text); break;
  }
}

TEST(PerfValidate, AcceptsEveryCompleteDocument) {
  for (const BenchDoc doc : kAllDocs) {
    SCOPED_TRACE(std::string(doc_name(doc)));
    EXPECT_EQ(joined(failures_of(valid_document(doc))), "");
  }
}

TEST(PerfValidate, EveryPredicateHasANegativeCase) {
  // A row predicate is broken on the last row, which no document predicate
  // of any table constrains in the same field.
  for (const BenchDoc doc : kAllDocs) {
    const BenchTable table = bench_table(doc, false);
    ASSERT_FALSE(table.predicates.empty()) << doc_name(doc);
    for (const Predicate& p : table.predicates) {
      BenchDocument d = valid_document(doc);
      BenchRow& row = p.row.empty() ? d.rows.back() : row_of(d, p.row);
      const std::string id = row.id;
      break_predicate(row, p);
      const std::vector<std::string> failures = failures_of(d);
      SCOPED_TRACE(std::string(doc_name(doc)) + " " + id + " " +
                   p.fields.front());
      ASSERT_EQ(failures.size(), 1u) << joined(failures);
      EXPECT_NE(failures[0].find(id + ": "), std::string::npos) << failures[0];
      EXPECT_NE(failures[0].find(p.fields.front()), std::string::npos)
          << failures[0];
    }
  }
}

TEST(PerfValidate, EveryDocumentNeedsItsRowsAndHeader) {
  for (const BenchDoc doc : kAllDocs) {
    SCOPED_TRACE(std::string(doc_name(doc)));
    BenchDocument d = valid_document(doc);
    d.rows.front().per_sec = 0.0;
    EXPECT_EQ(failures_of(d),
              std::vector<std::string>{d.rows.front().id +
                                       ": per_sec is not a positive number"});

    d = valid_document(doc);
    const std::string dropped = d.rows.back().id;
    d.rows.pop_back();
    EXPECT_EQ(failures_of(d),
              std::vector<std::string>{"missing row " + dropped});

    d = valid_document(doc);
    d.rows.push_back(d.rows.front());
    EXPECT_EQ(failures_of(d), std::vector<std::string>{
                                  d.rows.front().id + ": id is not unique"});

    d = valid_document(doc);
    d.header.hardware_threads = 0;
    EXPECT_EQ(failures_of(d),
              std::vector<std::string>{
                  "header: hardware_threads is not a positive number"});
    d = valid_document(doc);
    d.header.repetitions = 0;
    EXPECT_EQ(failures_of(d),
              std::vector<std::string>{
                  "header: repetitions is not a positive number"});
    d = valid_document(doc);
    d.header.compiler.clear();
    EXPECT_EQ(failures_of(d),
              std::vector<std::string>{
                  "header: compiler is not a non-empty string"});

    const std::string text = bench_to_json(valid_document(doc));
    const auto replaced = [&](const std::string& from, const std::string& to) {
      std::string out = text;
      out.replace(out.find(from), from.size(), to);
      return failures_of(out);
    };
    EXPECT_EQ(replaced("\"build_type\": \"Release\"", "\"build\": 1"),
              std::vector<std::string>{"header: build_type is not a string"});
    EXPECT_EQ(replaced("\"platform\"", "\"machine\""),
              std::vector<std::string>{
                  "header: platform has no cpus/gpus counts"});
    EXPECT_EQ(replaced("\"rows\"", "\"series\""),
              std::vector<std::string>{"header: rows is not an array"});
    EXPECT_EQ(replaced("\"id\"", "\"label\""),
              (std::vector<std::string>{"row: id is not a non-empty string",
                                        "missing row " + d.rows.front().id}));
  }
}

TEST(PerfValidate, ObsBudgetHoldsFullDocumentsOnly) {
  BenchDocument d = valid_document(BenchDoc::kObs);
  row_of(d, "cholesky/instrumented").set("overhead_fraction", 0.5);
  EXPECT_EQ(failures_of(d, /*quick=*/false),
            std::vector<std::string>{
                "cholesky/instrumented: overhead_fraction is over 0.02"});
  // A quick document from a loaded CI machine is not held to 2%, but its
  // overhead must still be a number.
  EXPECT_TRUE(failures_of(d, /*quick=*/true).empty());
  row_of(d, "cholesky/instrumented").set("overhead_fraction", std::string());
  EXPECT_EQ(failures_of(d, /*quick=*/true).size(), 1u);
}

TEST(PerfValidate, ListsAllMissingCoreSeries) {
  // Every absent row is named, not just the first one encountered.
  BenchDocument d = valid_document(BenchDoc::kCore);
  std::erase_if(d.rows, [](const BenchRow& r) {
    return r.id.ends_with("/n=10000");
  });
  const std::string error = joined(failures_of(d));
  for (const char* algo : {"HeteroPrio", "DualHP", "HEFT", "HeteroPrio-ref"}) {
    EXPECT_NE(error.find(std::string("missing row ") + algo + "/n=10000"),
              std::string::npos)
        << error;
  }
}

TEST(PerfValidate, RejectsOldSchemaMissingArenaAndMissingHardwareThreads) {
  const std::string doc = bench_to_json(valid_document(BenchDoc::kCore));
  std::string error;
  ASSERT_TRUE(validate_bench_json(doc, false, &error)) << error;
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string out = doc;
    out.replace(out.find(from), from.size(), to);
    return out;
  };

  EXPECT_FALSE(validate_bench_json(
      replaced("hp-bench-core/v5", "hp-bench-core/v4"), false, &error));
  EXPECT_NE(error.find("unknown schema tag 'hp-bench-core/v4'"),
            std::string::npos)
      << error;

  EXPECT_FALSE(validate_bench_json(
      replaced("arena_high_water_bytes", "other_field_name"), false, &error));
  EXPECT_NE(error.find("HeteroPrio/n=10000: arena_high_water_bytes"),
            std::string::npos)
      << error;

  EXPECT_FALSE(validate_bench_json(
      replaced("hardware_threads", "other_field_name"), false, &error));
  EXPECT_NE(error.find("hardware_threads"), std::string::npos) << error;

  // A NaN throughput is not a measurement (and not JSON); neither is one
  // that overflows to infinity.
  EXPECT_FALSE(validate_bench_json(replaced("1000000,", "nan,"), false,
                                   &error));
  EXPECT_FALSE(validate_bench_json(replaced("1000000,", "1e999,"), false,
                                   &error));
  EXPECT_NE(error.find("per_sec is not a positive number"), std::string::npos)
      << error;

  // Balanced braces are not enough: the document must be strict JSON.
  EXPECT_FALSE(validate_bench_json(replaced("\"Release\",", "\"Release\",,"),
                                   false, &error));
}

TEST(PerfValidate, DagValidatorChecksCpFieldsAndListsMissing) {
  BenchDocument d = valid_document(BenchDoc::kDag);
  std::erase_if(d.rows, [](const BenchRow& r) {
    return r.id == "cholesky/HEFT/N=10";
  });
  EXPECT_EQ(failures_of(d),
            std::vector<std::string>{"missing row cholesky/HEFT/N=10"});

  // NaN compares false against both ends of the range; it must still fail.
  std::string nan_cp = bench_to_json(valid_document(BenchDoc::kDag));
  nan_cp.replace(nan_cp.find("0.9"), 3, "nan");
  std::string error;
  EXPECT_FALSE(validate_bench_json(nan_cp, false, &error));
}

TEST(PerfValidate, OnlineValidatorChecksInvariants) {
  BenchDocument d = valid_document(BenchDoc::kOnline);
  row_of(d, "saturating").set("zero_drop", false);
  EXPECT_EQ(failures_of(d), std::vector<std::string>{
                                "saturating: zero_drop is not true"});

  // Any JSON spacing of the zero-drop flag is the same document.
  std::string text = bench_to_json(valid_document(BenchDoc::kOnline));
  text.replace(text.find("\"zero_drop\": true"), 17, "\"zero_drop\":true");
  std::string error;
  EXPECT_TRUE(validate_bench_json(text, false, &error)) << error;

  std::string nan_miss = bench_to_json(valid_document(BenchDoc::kOnline));
  nan_miss.replace(nan_miss.find("0.1"), 3, "nan");
  EXPECT_FALSE(validate_bench_json(nan_miss, false, &error));
}

TEST(PerfValidate, ServeValidatorChecksAccounting) {
  // completed + rejected == submitted needs all three counts; a row without
  // them cannot show it holds.
  BenchDocument d = valid_document(BenchDoc::kServe);
  std::erase_if(row_of(d, "saturating").fields,
                [](const auto& f) { return f.first == "submitted"; });
  EXPECT_EQ(failures_of(d),
            std::vector<std::string>{
                "saturating: completed + rejected == submitted does not "
                "hold"});

  d = valid_document(BenchDoc::kServe);
  row_of(d, "saturating").set("completed", 59.0);
  EXPECT_EQ(failures_of(d).size(), 1u);

  // Out-of-order latency quantiles.
  d = valid_document(BenchDoc::kServe);
  row_of(d, "workers-2").set("p99_latency_ms", 0.25);
  EXPECT_EQ(failures_of(d),
            std::vector<std::string>{
                "workers-2: p50_latency_ms <= p99_latency_ms does not hold"});
}

obs::JsonValue parsed(const std::string& text) {
  obs::JsonValue doc;
  std::string error;
  EXPECT_TRUE(obs::json_parse(text, &doc, &error)) << error;
  return doc;
}

/// The two documents joined at perf-check's default tolerance.
PerfComparison compare(const std::string& before, const std::string& after) {
  return compare_series(parsed(before), parsed(after), 0.25);
}

std::string doc_with(BenchDoc doc, const std::string& id, double per_sec) {
  BenchDocument d = valid_document(doc);
  row_of(d, id).per_sec = per_sec;
  return bench_to_json(d);
}

TEST(PerfCompare, IdenticalDocumentsAreUnchanged) {
  for (const BenchDoc doc : kAllDocs) {
    const BenchDocument d = valid_document(doc);
    const PerfComparison cmp =
        compare(bench_to_json(d), bench_to_json(d));
    EXPECT_TRUE(cmp.ok()) << doc_name(doc);
    EXPECT_EQ(cmp.unchanged.size(), d.rows.size()) << doc_name(doc);
  }
}

TEST(PerfCompare, NamesTheRegressedSeriesWithDelta) {
  const PerfComparison cmp =
      compare(doc_with(BenchDoc::kCore, "HEFT/n=1000", 1e7),
                     doc_with(BenchDoc::kCore, "HEFT/n=1000", 4e6));
  EXPECT_FALSE(cmp.ok());
  ASSERT_EQ(cmp.regressed.size(), 1u);
  EXPECT_EQ(cmp.regressed[0].key, "HEFT/n=1000");
  EXPECT_DOUBLE_EQ(cmp.regressed[0].baseline, 1e7);
  EXPECT_DOUBLE_EQ(cmp.regressed[0].current, 4e6);

  const std::string text = format_comparison(cmp);
  EXPECT_NE(text.find("REGRESSED HEFT/n=1000: 1e+07 -> 4e+06 /s (-60.0%)"),
            std::string::npos)
      << text;
}

TEST(PerfCompare, OnlineAndServeRegressionsAreNamed) {
  // Halving one row's throughput must regress that row in every document,
  // whatever its extra fields are.
  for (const auto& [doc, id] :
       {std::pair{BenchDoc::kOnline, "rate-1x"},
        std::pair{BenchDoc::kServe, "workers-2"}}) {
    const PerfComparison cmp = compare(
        bench_to_json(valid_document(doc)), doc_with(doc, id, 5e5));
    EXPECT_FALSE(cmp.ok()) << id;
    ASSERT_EQ(cmp.regressed.size(), 1u) << id;
    EXPECT_EQ(cmp.regressed[0].key, id);
    EXPECT_NE(format_comparison(cmp).find(std::string("REGRESSED ") + id),
              std::string::npos);
  }
}

TEST(PerfCompare, EmptyJoinFails) {
  // Nothing compared is not a pass: a baseline of another schema, or one
  // without rows.
  const PerfComparison other_doc =
      compare(bench_to_json(valid_document(BenchDoc::kServe)),
                     bench_to_json(valid_document(BenchDoc::kCore)));
  EXPECT_EQ(other_doc.joined(), 0u);
  EXPECT_FALSE(other_doc.ok());
  const PerfComparison no_rows = compare(
      "{\"rows\": []}", bench_to_json(valid_document(BenchDoc::kCore)));
  EXPECT_EQ(no_rows.joined(), 0u);
  EXPECT_TRUE(no_rows.missing.empty());
  EXPECT_FALSE(no_rows.ok());
}

TEST(PerfCompare, NamesMissingSeries) {
  BenchDocument current = valid_document(BenchDoc::kCore);
  std::erase_if(current.rows,
                [](const BenchRow& r) { return r.id == "DualHP/n=1000"; });
  const PerfComparison cmp =
      compare(bench_to_json(valid_document(BenchDoc::kCore)),
                     bench_to_json(current));
  EXPECT_FALSE(cmp.ok());
  ASSERT_EQ(cmp.missing.size(), 1u);
  EXPECT_EQ(cmp.missing[0], "DualHP/n=1000");
  EXPECT_NE(format_comparison(cmp).find("MISSING"), std::string::npos);
}

TEST(PerfCompare, ToleratesReorderedSeries) {
  const BenchDocument forward = valid_document(BenchDoc::kServe);
  BenchDocument reversed = forward;
  std::reverse(reversed.rows.begin(), reversed.rows.end());
  const PerfComparison cmp =
      compare(bench_to_json(forward), bench_to_json(reversed));
  EXPECT_TRUE(cmp.ok());
  EXPECT_EQ(cmp.unchanged.size(), forward.rows.size());
  EXPECT_TRUE(cmp.missing.empty());
  EXPECT_TRUE(cmp.added.empty());
}

TEST(PerfCompare, ImprovementsAndAdditionsAreReportedNotFatal) {
  BenchDocument current = valid_document(BenchDoc::kCore);
  row_of(current, "HeteroPrio/n=1000").per_sec = 3e6;
  current.rows.push_back(BenchRow{"HeteroPrio/n=5000", 9e6});
  const PerfComparison cmp =
      compare(bench_to_json(valid_document(BenchDoc::kCore)),
                     bench_to_json(current));
  EXPECT_TRUE(cmp.ok());  // improvements and additions never fail the gate
  EXPECT_EQ(cmp.improved.size(), 1u);
  ASSERT_EQ(cmp.added.size(), 1u);
  EXPECT_EQ(cmp.added[0], "HeteroPrio/n=5000");
}

TEST(PerfCompare, DagSeriesKeysUseKernelAndTiles) {
  const std::vector<SeriesPoint> points =
      extract_series(parsed(bench_to_json(valid_document(BenchDoc::kDag))));
  ASSERT_FALSE(points.empty());
  EXPECT_EQ(points[0].key, "cholesky/HeteroPrio/N=10");
  EXPECT_EQ(points[0].per_sec, 1e6);
}

}  // namespace
}  // namespace hp::perf
