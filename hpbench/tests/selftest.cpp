// Tests of the benchmark's own machinery: the correctness gate must count a
// tampered schedule, a mismatched service response and unbalanced service
// accounting as failures, and span self time must exclude child spans.
//
//   cmake --build .bench_build/hpbench --target hpbench_selftest
//   ctest --test-dir .bench_build/hpbench

#include <cmath>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "core/heteroprio.hpp"
#include "dag/task_graph.hpp"
#include "linalg/cholesky.hpp"
#include "spans.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "FAILED: " << what << '\n';
}

hp::TaskGraph small_instance() {
  hp::TaskGraph graph("selftest");
  for (int i = 0; i < 12; ++i) {
    graph.add_task(hp::Task{1.0 + i, 0.5 + 0.25 * i, 0.0,
                            hp::KernelKind::kGeneric});
  }
  graph.finalize();
  return graph;
}

void tampered_schedule_is_counted() {
  const hp::TaskGraph graph = small_instance();
  const hp::Platform platform(2, 1);
  hpb::Gate gate;
  hp::Schedule schedule = hp::heteroprio(graph.tasks(), platform);
  expect(gate.check_schedule(schedule, graph, platform, {}, "intact"),
         "an engine schedule passes");
  const hp::Placement p = schedule.placement(0);
  schedule.place(0, p.worker, p.start, p.end + 0.5);  // wrong duration
  expect(!gate.check_schedule(schedule, graph, platform, {}, "tampered"),
         "a stretched placement fails");
  expect(gate.attempted() == 2 && gate.failed() == 1,
         "the tampered schedule is counted as one failure of two");
  expect(gate.pass_rate() == 0.5, "pass rate is passed over attempted");
  expect(gate.first_error().rfind("tampered", 0) == 0,
         "the first error names the failed check");
}

void dag_precedence_is_checked() {
  hp::TaskGraph graph = hp::cholesky_dag(3);
  const hp::Platform platform(2, 1);
  hp::Schedule schedule(graph.size());
  // Every task at time 0 on its own slot of worker 0 ignores precedence
  // (and exclusivity); the gate must reject it.
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const hp::Task& t = graph.task(static_cast<hp::TaskId>(i));
    schedule.place(static_cast<hp::TaskId>(i), 0, 0.0, t.cpu_time);
  }
  hpb::Gate gate;
  expect(!gate.check_schedule(schedule, graph, platform, {}, "dag"),
         "a schedule violating precedence fails");
  expect(gate.failed() == 1, "the DAG violation is counted");
}

void mismatched_response_is_counted() {
  hp::serve::Request request;
  request.graph = small_instance();
  request.platform = hp::Platform(2, 1);
  const hp::serve::Response expected = hp::serve::execute_request(request);
  hpb::Gate gate;
  expect(gate.check_response(expected, expected, "same"),
         "an identical response passes");

  hp::serve::Response moved = expected;
  const hp::Placement p = moved.schedule.placement(3);
  moved.schedule.place(3, p.worker, p.start + 1e-12, p.end + 1e-12);
  expect(!gate.check_response(moved, expected, "moved"),
         "a response shifted by 1e-12 fails the bitwise comparison");

  hp::serve::Response recovered = expected;
  recovered.recovery.task_retries = 1;
  expect(!gate.check_response(recovered, expected, "recovery"),
         "a different recovery report fails");

  hp::serve::Response rejected = expected;
  rejected.status = hp::serve::ResponseStatus::kRejected;
  expect(!gate.check_response(rejected, expected, "status"),
         "a different status fails");
  expect(gate.attempted() == 4 && gate.failed() == 3,
         "each mismatched response is counted");
}

void unbalanced_accounting_is_counted() {
  hpb::Gate gate;
  hp::serve::Service::Accounting acct;
  acct.submitted = 3;
  acct.accepted = 3;
  acct.completed = 3;
  expect(gate.check_accounting(acct, "balanced"), "balanced accounting passes");
  acct.completed = 2;  // one request silently dropped
  expect(!gate.check_accounting(acct, "dropped"), "a dropped request fails");
  expect(gate.failed() == 1, "the dropped request is counted");

  hpb::Gate other;
  other.merge(gate);
  expect(other.attempted() == 2 && other.failed() == 1,
         "merge adds another gate's counts");
}

void self_time_excludes_children() {
  hpb::SpanRecorder recorder(true);
  const int outer = recorder.open("bench", "outer");
  const int inner = recorder.open("core", "heteroprio");
  recorder.close(inner);
  recorder.close(outer);
  const auto& spans = recorder.spans();
  expect(spans.size() == 2 && spans[1].parent == 0, "child links to parent");
  const auto self = recorder.self_seconds();
  const double outer_s = (spans[0].end_ns - spans[0].start_ns) * 1e-9;
  const double inner_s = (spans[1].end_ns - spans[1].start_ns) * 1e-9;
  expect(std::abs(self.at("core") - inner_s) < 1e-12, "leaf self = duration");
  expect(std::abs(self.at("bench") - (outer_s - inner_s)) < 1e-12,
         "parent self excludes the child");

  hpb::SpanRecorder off(false);
  expect(off.open("core", "x") == -1 && off.spans().empty(),
         "a disabled recorder records nothing");
}

}  // namespace

int main() {
  tampered_schedule_is_counted();
  dag_precedence_is_checked();
  mismatched_response_is_counted();
  unbalanced_accounting_is_counted();
  self_time_excludes_children();
  if (failures != 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "hpbench selftest: all checks passed\n";
  return 0;
}
