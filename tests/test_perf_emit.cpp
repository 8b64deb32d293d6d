// Golden text of the BENCH document emitter (bench_to_json), one document
// per schema: each serializes a hand-built document and must reproduce it
// byte for byte. The committed BENCH_*.json artifacts are compared across
// versions, so any change to the emitted bytes is a schema change and must
// show up here first.

#include <gtest/gtest.h>

#include <string>

#include "perf/bench_common.hpp"

namespace hp::perf {
namespace {

BenchHeader header(Platform platform, int repetitions) {
  return BenchHeader{platform, repetitions, 8, "GNU 12.2.0", "Release"};
}

TEST(PerfEmit, CoreDocumentWithEveryOptionalBlock) {
  BenchDocument d{BenchDoc::kCore, header(Platform(20, 4), 5), {}};
  d.rows.push_back(BenchRow{"HeteroPrio/n=1000", 8100000.123456789}
                       .set("n", 1000.0)
                       .set("speedup_vs_reference", 2.718281828459045)
                       .set("spoliation_skips", 1234567.0)
                       .set("gpu_idle_fraction", 1.0 / 3.0)
                       .set("arena_high_water_bytes", 3407872.0));
  d.rows.push_back(BenchRow{"HeteroPrio-ref/n=1000", 66666.66666666667}.set(
      "n", 1000.0));
  d.rows.push_back(BenchRow{"dag-sweep", 168.0}
                       .set("rows", 42.0)
                       .set("threads", 4.0));
  EXPECT_EQ(bench_to_json(d),
            R"({
  "schema": "hp-bench-core/v5",
  "platform": {"cpus": 20, "gpus": 4},
  "repetitions": 5,
  "hardware_threads": 8,
  "compiler": "GNU 12.2.0",
  "build_type": "Release",
  "rows": [
    {"id": "HeteroPrio/n=1000", "per_sec": 8100000.123, "n": 1000, "speedup_vs_reference": 2.718281828, "spoliation_skips": 1234567, "gpu_idle_fraction": 0.3333333333, "arena_high_water_bytes": 3407872},
    {"id": "HeteroPrio-ref/n=1000", "per_sec": 66666.66667, "n": 1000},
    {"id": "dag-sweep", "per_sec": 168, "rows": 42, "threads": 4}
  ]
}
)");
}

TEST(PerfEmit, CoreDocumentWithoutOptionalBlocks) {
  // No rows, and strings that need escaping in the header.
  BenchDocument d{BenchDoc::kCore,
                  BenchHeader{Platform(3, 1), 1, 1, "a \"quoted\\\" name", ""},
                  {}};
  EXPECT_EQ(bench_to_json(d),
            R"({
  "schema": "hp-bench-core/v5",
  "platform": {"cpus": 3, "gpus": 1},
  "repetitions": 1,
  "hardware_threads": 1,
  "compiler": "a \"quoted\\\" name",
  "build_type": "",
  "rows": [
  ]
}
)");
}

TEST(PerfEmit, DagDocument) {
  BenchDocument d{BenchDoc::kDag, header(Platform(20, 4), 3), {}};
  d.rows.push_back(BenchRow{"cholesky/HeteroPrio/N=10", 482456.1403508772}
                       .set("n", 220.0)
                       .set("makespan", 1234.5678901234)
                       .set("cp_compute_fraction", 0.8512345678901)
                       .set("cp_segments", 41.0)
                       .set("speedup_vs_reference", 3.14159265358979));
  EXPECT_EQ(bench_to_json(d),
            R"({
  "schema": "hp-bench-dag/v3",
  "platform": {"cpus": 20, "gpus": 4},
  "repetitions": 3,
  "hardware_threads": 8,
  "compiler": "GNU 12.2.0",
  "build_type": "Release",
  "rows": [
    {"id": "cholesky/HeteroPrio/N=10", "per_sec": 482456.1404, "n": 220, "makespan": 1234.56789, "cp_compute_fraction": 0.8512345679, "cp_segments": 41, "speedup_vs_reference": 3.141592654}
  ]
}
)");
}

TEST(PerfEmit, ObsDocument) {
  BenchDocument d{BenchDoc::kObs, header(Platform(20, 4), 7), {}};
  d.rows.push_back(
      BenchRow{"cholesky/baseline", 5000000.0}.set("n", 11480.0));
  d.rows.push_back(BenchRow{"cholesky/instrumented", 5010000.0}
                       .set("n", 11480.0)
                       .set("overhead_fraction", -0.001996007984031936));
  EXPECT_EQ(bench_to_json(d),
            R"({
  "schema": "hp-bench-obs/v2",
  "platform": {"cpus": 20, "gpus": 4},
  "repetitions": 7,
  "hardware_threads": 8,
  "compiler": "GNU 12.2.0",
  "build_type": "Release",
  "rows": [
    {"id": "cholesky/baseline", "per_sec": 5000000, "n": 11480},
    {"id": "cholesky/instrumented", "per_sec": 5010000, "n": 11480, "overhead_fraction": -0.001996007984}
  ]
}
)");
}

TEST(PerfEmit, OnlineDocument) {
  BenchDocument d{BenchDoc::kOnline, header(Platform(20, 4), 5), {}};
  d.rows.push_back(BenchRow{"saturating", 99999.5}
                       .set("n", 50000.0)
                       .set("rate", 1234.5678901234)
                       .set("shed_fraction", 0.3333333333333333)
                       .set("final_mode", std::string("shedding"))
                       .set("zero_drop", false));
  EXPECT_EQ(bench_to_json(d),
            R"({
  "schema": "hp-bench-online/v2",
  "platform": {"cpus": 20, "gpus": 4},
  "repetitions": 5,
  "hardware_threads": 8,
  "compiler": "GNU 12.2.0",
  "build_type": "Release",
  "rows": [
    {"id": "saturating", "per_sec": 99999.5, "n": 50000, "rate": 1234.56789, "shed_fraction": 0.3333333333, "final_mode": "shedding", "zero_drop": false}
  ]
}
)");
}

TEST(PerfEmit, ServeDocument) {
  BenchDocument d{BenchDoc::kServe, header(Platform(8, 2), 3), {}};
  d.rows.push_back(BenchRow{"workers-1", 14123.456789012}
                       .set("submitted", 256.0)
                       .set("p99_latency_ms", 1.0000000001)
                       .set("zero_drop", true));
  EXPECT_EQ(bench_to_json(d),
            R"({
  "schema": "hp-bench-serve/v2",
  "platform": {"cpus": 8, "gpus": 2},
  "repetitions": 3,
  "hardware_threads": 8,
  "compiler": "GNU 12.2.0",
  "build_type": "Release",
  "rows": [
    {"id": "workers-1", "per_sec": 14123.45679, "submitted": 256, "p99_latency_ms": 1, "zero_drop": true}
  ]
}
)");
}

}  // namespace
}  // namespace hp::perf
