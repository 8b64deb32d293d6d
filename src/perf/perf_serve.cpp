#include "perf/perf_serve.hpp"

#include <algorithm>
#include <iostream>
#include <optional>

#include "model/generators.hpp"
#include "online/runtime.hpp"
#include "perf/bench_common.hpp"
#include "serve/driver.hpp"
#include "util/rng.hpp"

namespace hp::perf {

namespace {

/// Salt for the per-request workload seed, distinct from every other
/// subsystem.
constexpr std::uint64_t kServeSalt = 0x73727665ULL;  // "srve"

/// Deterministic request factory: one independent uniform instance per
/// (client, request) cell, tenants striped over clients, backends rotated
/// so the sweep exercises all engine entry points.
serve::Request make_request(int client, int index, std::size_t tasks,
                            const Platform& platform) {
  util::Rng rng(util::seed_from_cell({static_cast<std::uint64_t>(client),
                                      static_cast<std::uint64_t>(index)},
                                     kServeSalt));
  UniformGenParams params;
  params.num_tasks = tasks;
  const Instance inst = uniform_instance(params, rng);

  serve::Request request;
  request.tenant = client % 4;
  switch (index % 3) {
    case 0: request.backend = serve::Backend::kHp; break;
    case 1: request.backend = serve::Backend::kHeft; break;
    default: request.backend = serve::Backend::kDualHp; break;
  }
  request.platform = platform;
  TaskGraph graph("perf-serve-" + std::to_string(client) + "-" +
                  std::to_string(index));
  for (const Task& t : inst.tasks()) {
    Task task = t;
    task.priority = rng.uniform(0.0, 16.0);
    graph.add_task(task);
  }
  graph.finalize();
  request.graph = std::move(graph);
  return request;
}

/// Best-of-reps measurement of one arm; throughput comes from the fastest
/// repetition, latency quantiles from that same run, and zero_drop must
/// hold in every repetition.
PerfServeSeries measure_arm(const std::string& label,
                            const PerfServeOptions& options,
                            const serve::ServiceOptions& service, int reps) {
  serve::DriverOptions driver;
  driver.clients = options.clients;
  driver.requests_per_client = options.requests_per_client;
  driver.service = service;
  driver.verify = false;  // the fuzz `serve` property owns the differential

  PerfServeSeries s;
  s.label = label;
  s.workers = service.workers;
  s.clients = options.clients;
  s.zero_drop = true;
  for (int r = 0; r < reps; ++r) {
    const serve::DriverReport report = serve::run_driver(
        [&](int client, int index) {
          return make_request(client, index, options.tasks_per_request,
                              options.platform);
        },
        driver);
    s.zero_drop = s.zero_drop && report.balanced && report.paired;
    if (report.requests_per_sec > s.requests_per_sec) {
      s.requests_per_sec = report.requests_per_sec;
      s.submitted = report.accounting.submitted;
      s.completed = report.accounting.completed;
      s.rejected = report.accounting.rejected;
      s.deferred = report.accounting.deferred;
      s.p50_latency_ms = report.p50_latency_seconds * 1e3;
      s.p99_latency_ms = report.p99_latency_seconds * 1e3;
    }
  }
  return s;
}

}  // namespace

PerfServeBaseline run_perf_serve(const PerfServeOptions& options) {
  PerfServeBaseline out;
  out.platform = options.platform;
  out.repetitions = std::max(1, options.repetitions);
  out.tasks_per_request = options.tasks_per_request;

  const auto note = [](const PerfServeSeries& s) {
    std::cerr << "[perf-serve] " << s.label << ": " << s.requests_per_sec
              << " req/s, p50 " << s.p50_latency_ms << " ms, p99 "
              << s.p99_latency_ms << " ms, rejected " << s.rejected << '\n';
  };

  for (const int workers : options.worker_counts) {
    serve::ServiceOptions service;
    service.workers = std::max(1, workers);
    PerfServeSeries s =
        measure_arm("workers-" + std::to_string(service.workers), options,
                    service, out.repetitions);
    out.series.push_back(s);
    note(out.series.back());
  }

  // Saturating arm: a shallow admission watermark with rejection against
  // the full client load — the service must shed (rejected > 0) while
  // still answering every submission (zero_drop).
  {
    serve::ServiceOptions service;
    service.workers = 2;
    service.watermark_high = 2;
    service.shed_policy = online::ShedPolicy::kReject;
    PerfServeSeries s =
        measure_arm("saturating", options, service, out.repetitions);
    out.series.push_back(s);
    note(out.series.back());
  }
  return out;
}

std::string perf_serve_to_json(const PerfServeBaseline& baseline) {
  std::ostringstream out = open_document({.schema = kServeSchema,
                                          .platform = baseline.platform,
                                          .repetitions = baseline.repetitions});
  out << "  \"tasks_per_request\": " << baseline.tasks_per_request << ",\n";
  write_rows(out, "series", baseline.series,
             [](std::ostream& row, const PerfServeSeries& s) {
               row << "{\"label\": \"" << s.label << "\", "
                   << "\"workers\": " << s.workers << ", "
                   << "\"clients\": " << s.clients << ", "
                   << "\"submitted\": " << s.submitted << ", "
                   << "\"completed\": " << s.completed << ", "
                   << "\"rejected\": " << s.rejected << ", "
                   << "\"deferred\": " << s.deferred << ", "
                   << "\"requests_per_sec\": " << s.requests_per_sec << ", "
                   << "\"p50_latency_ms\": " << s.p50_latency_ms << ", "
                   << "\"p99_latency_ms\": " << s.p99_latency_ms << ", "
                   << "\"zero_drop\": " << (s.zero_drop ? "true" : "false")
                   << "}";
             });
  out << "\n}\n";
  return out.str();
}

bool validate_perf_serve_json(const std::string& json_text,
                              std::string* error) {
  obs::JsonValue doc;
  if (!parse_bench_json(json_text, kServeSchema, &doc, error)) return false;
  const obs::JsonArray* series = array_field(doc, "series");
  if (series == nullptr) {
    if (error != nullptr) *error = "missing series array";
    return false;
  }

  std::vector<std::string> labels;
  std::string problems;
  const auto problem = [&](const std::string& why) {
    if (!problems.empty()) problems += "; ";
    problems += why;
  };
  for (const obs::JsonValue& row : *series) {
    const std::string label = string_field(row, "label");
    if (label.empty()) {
      problem("series entry without label");
      continue;
    }
    labels.push_back(label);
    const std::optional<double> rate = number_field(row, "requests_per_sec");
    const std::optional<double> p50 = number_field(row, "p50_latency_ms");
    const std::optional<double> p99 = number_field(row, "p99_latency_ms");
    const std::optional<double> submitted = number_field(row, "submitted");
    const std::optional<double> completed = number_field(row, "completed");
    const std::optional<double> rejected = number_field(row, "rejected");
    if (!rate || *rate <= 0.0) {
      problem(label + " has no positive requests_per_sec");
    }
    if (!p50 || *p50 <= 0.0) {
      problem(label + " has no positive p50_latency_ms");
    }
    if (!p99 || *p99 <= 0.0) {
      problem(label + " has no positive p99_latency_ms");
    }
    if (p50 && p99 && *p99 < *p50) {
      problem(label + " latency quantiles out of order (p99 < p50)");
    }
    if (!submitted || !completed || !rejected) {
      problem(label + " has no submitted/completed/rejected counts");
    } else if (*completed + *rejected != *submitted) {
      problem(label + " does not account for every request");
    }
    // The zero-silent-drop invariant is part of the document contract.
    if (!true_field(row, "zero_drop")) {
      problem(label + " does not assert zero_drop");
    }
    if (label == "saturating" && rejected.value_or(0.0) <= 0.0) {
      problem("saturating arm rejected nothing");
    }
  }
  if (const std::string missing =
          missing_series({"workers-1", "saturating"}, labels);
      !missing.empty()) {
    problem(missing);
  }
  if (problems.empty()) return true;
  if (error != nullptr) *error = problems;
  return false;
}

}  // namespace hp::perf
