#pragma once
// Property oracle — the checking side of the fuzzing subsystem.
//
// Given a FuzzCase and a scheduler, check_case() runs the scheduler through
// run_scheduler() (runtime/dispatch.hpp) and evaluates every applicable
// property from the catalogue below. A property silently skips when its
// preconditions do not hold (e.g. the proven-ratio theorems only cover
// fault-free independent-task HeteroPrio runs); a failure carries the
// property name and a human-readable detail line, and is what the shrinker
// minimizes against.
//
// Catalogue (docs/testing.md has the full rationale):
//   validity      check_schedule passes (relaxed options under faults)
//   lower-bound   complete runs: makespan >= area/DAG lower bound
//   ratio         HeteroPrio, independent, fault-free: makespan within the
//                 proven ratio of the lower bound (Thms 7/9/12, Graham)
//   exact         small fault-free independent instances: differential
//                 against bounds/exact_opt (no scheduler beats OPT; HeteroPrio
//                 stays within the proven ratio of OPT; OPT >= area bound)
//   ref-diff      fault-free runs: bitwise agreement with the preserved
//                 reference engines (core/heteroprio_ref, baselines/heft_ref)
//   scale         metamorphic: doubling every duration doubles the makespan
//                 bitwise (scheduling decisions are scale-free)
//   permute       metamorphic: reversing task order under tie-free
//                 acceleration keys leaves the makespan unchanged
//   spare-crash   metamorphic: an extra worker that crashes at t=0 is a
//                 no-op for the online engine
//   fault-account degraded runs: relaxed validity plus retry-budget
//                 bookkeeping (a task is abandoned iff its attempts are
//                 exhausted; unfinished == unplaced; degraded iff unfinished)
//   online        HeteroPrio only: the online runtime replayed all-at-t=0
//                 is bitwise-identical to the batch run (same fault plan
//                 included); cases carrying a staggered arrival stream
//                 additionally run it online and check validity, that no
//                 task starts before its arrival, and the zero-silent-drop
//                 accounting identity
//   serve         cases carrying serve_workers >= 2: the same case routed
//                 through the multi-tenant service (1 tenant / 1 worker,
//                 then several submissions over serve_workers workers)
//                 returns schedules bitwise-identical to the direct
//                 run_scheduler() call, and under seed-randomized
//                 defer/reject admission watermarks the zero-silent-drop
//                 accounting identity holds (every submission answered,
//                 completed + rejected == submitted, deferred requests
//                 never lost)

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/generator.hpp"
#include "runtime/dispatch.hpp"

namespace hp::fuzz {

/// Property bitmask.
enum PropertyBits : unsigned {
  kPropValidity = 1u << 0,
  kPropLowerBound = 1u << 1,
  kPropRatio = 1u << 2,
  kPropExact = 1u << 3,
  kPropRefDiff = 1u << 4,
  kPropScale = 1u << 5,
  kPropPermute = 1u << 6,
  kPropSpareCrash = 1u << 7,
  kPropFaultAccount = 1u << 8,
  kPropOnline = 1u << 9,
  kPropServe = 1u << 10,
  kPropAll = (1u << 11) - 1,
};

/// Name of a single property bit ("validity", "ratio", ...).
[[nodiscard]] const char* property_name(unsigned bit) noexcept;

/// Parse a comma-separated property list ("validity,ratio" or "all").
/// Returns false (and a message) on an unknown name.
[[nodiscard]] bool parse_props(const std::string& text, unsigned* out,
                               std::string* error);

/// Comma-separated names of the set bits, in catalogue order.
[[nodiscard]] std::string props_to_string(unsigned props);

struct PropertyFailure {
  std::string property;   ///< catalogue name
  std::string scheduler;  ///< scheduler_name()
  std::string detail;     ///< one-line diagnosis
};

struct OracleVerdict {
  int properties_checked = 0;  ///< applicable properties actually evaluated
  double makespan = 0.0;       ///< the checked run's makespan (checksum feed)
  std::vector<PropertyFailure> failures;

  [[nodiscard]] bool ok() const noexcept { return failures.empty(); }
};

struct OracleOptions {
  unsigned props = kPropAll;
  /// `exact` applicability gate: branch-and-bound is exponential, so the
  /// differential against OPT only runs on instances at most this large.
  int exact_max_tasks = 9;
  int exact_max_workers = 4;
  double tol = 1e-9;
};

/// Run `sched` on `c` and evaluate the selected properties.
[[nodiscard]] OracleVerdict check_case(const FuzzCase& c, SchedulerId sched,
                                       const OracleOptions& options = {});

}  // namespace hp::fuzz
