#pragma once
// Seeded fuzz-case generators — the instance side of the property-based
// testing subsystem (see docs/testing.md).
//
// A FuzzCase is one complete scheduling problem: a platform, a workload
// (independent tasks or a DAG, both stored as a TaskGraph — independent
// instances are simply edge-free), and an optional fault plan. Cases are
// pure functions of (seed, index): the same coordinates regenerate the same
// case forever, in any process, so a one-line report entry is a full repro.
//
// The shapes are deliberately diverse — uniform/bimodal/equal-accel task
// sets, layered and sparse random DAGs, small tiled-factorization DAGs —
// because the schedulers must not depend on the regularity of any one
// family (the same reason dag/random_graphs.hpp exists).

#include <cstdint>
#include <string>

#include "dag/random_graphs.hpp"
#include "dag/ranking.hpp"
#include "dag/task_graph.hpp"
#include "fault/fault_plan.hpp"
#include "model/platform.hpp"
#include "online/arrival.hpp"

namespace hp::fuzz {

/// Size and shape knobs of the case generator.
struct GenKnobs {
  int max_tasks = 40;   ///< tasks per case drawn from [1, max_tasks]
  int max_cpus = 4;     ///< cpus drawn from [0, max_cpus]
  int max_gpus = 3;     ///< gpus drawn from [0, max_gpus]; never both 0
  double dag_fraction = 0.4;      ///< fraction of cases that carry edges
  double fault_fraction = 0.25;   ///< fraction of cases with a fault plan
  double degenerate_fraction = 0.1;  ///< fraction forced to one-sided nodes
  /// Fraction of cases carrying a staggered arrival stream (the online
  /// differential of the oracle). Drawn after every earlier field, so
  /// cases at a given (seed, index) are unchanged from before the knob
  /// existed whenever the draw comes up fault-free-of-arrivals.
  double online_fraction = 0.25;
  /// Upper bound (inclusive) for FuzzCase::serve_workers, the service
  /// worker-pool size the `serve` property exercises; drawn uniformly from
  /// [2, serve_workers]. Drawn *strictly last* (the property arrived
  /// after every other knob), so every earlier field of historical
  /// (seed, index) cases stays byte-identical. < 2 disables the draw.
  int serve_workers = 3;
};

/// One generated scheduling problem.
struct FuzzCase {
  std::string name;        ///< "case-<seed>-<index>"
  std::uint64_t seed = 0;  ///< the cell seed the case was drawn from
  Platform platform{1, 1};
  /// Finalized workload; independent instances have no edges. DAG cases
  /// carry priorities assigned with `rank`; independent cases carry random
  /// (distinct) priorities as plain data.
  TaskGraph graph;
  RankScheme rank = RankScheme::kMin;  ///< scheme behind DAG priorities
  /// Empty for fault-free cases (the engines' regression-tested no-op).
  fault::FaultPlan faults;
  /// Empty (or all-at-t=0) for batch cases; staggered streams drive the
  /// oracle's online differential property.
  online::ArrivalPlan arrivals;
  /// Service workers the `serve` property routes the case through
  /// (ServiceOptions::workers). 0 disables the property for this case.
  int serve_workers = 0;

  [[nodiscard]] bool is_dag() const noexcept { return graph.num_edges() > 0; }
  [[nodiscard]] bool has_faults() const noexcept { return !faults.empty(); }
  [[nodiscard]] bool has_arrivals() const noexcept {
    return !arrivals.empty() && !arrivals.all_at_origin();
  }
};

/// Generate the case at (seed, index). Deterministic; independent of every
/// other index, so a run report line identifies its case exactly.
[[nodiscard]] FuzzCase generate_case(std::uint64_t seed, std::uint64_t index,
                                     const GenKnobs& knobs = {});

}  // namespace hp::fuzz
