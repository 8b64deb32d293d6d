#pragma once
// Communication-aware scheduling (extension; see comm_model.hpp).
//
// * heft_comm — classic HEFT as published [11]: upward ranks include the
//   mean edge communication cost, EST accounts for predecessor placements,
//   insertion-based EFT. With a zero-cost CommModel it reduces to heft().
// * heteroprio_comm — HeteroPrio where a task's execution on a worker is
//   preceded by the transfer of its inputs across the memory boundary
//   (transfers of distinct inputs overlap: the delay is the max, not the
//   sum). Spoliation decisions account for the victim's inputs having to
//   move to the thief. With a zero-cost CommModel it reduces to
//   heteroprio_dag().
//
// Both are thin wrappers over the shared engines: heteroprio_comm runs the
// one HeteroPrio event loop (core/hp_engine.hpp) with its comm hooks, and
// heft_comm runs heft()'s placement loop with a per-worker ready time.

#include <span>
#include <vector>

#include "comm/comm_model.hpp"
#include "core/heteroprio.hpp"
#include "dag/ranking.hpp"
#include "dag/task_graph.hpp"
#include "sched/schedule.hpp"

namespace hp {

struct HeftCommOptions {
  RankScheme rank = RankScheme::kAvg;
  bool insertion = true;
};

/// HEFT with communication costs. `payloads` gives each task's output size
/// in MB (see uniform_payloads).
[[nodiscard]] Schedule heft_comm(const TaskGraph& graph,
                                 const Platform& platform,
                                 const CommModel& comm,
                                 std::span<const double> payloads,
                                 const HeftCommOptions& options = {});

struct HeteroPrioCommStats {
  int spoliations = 0;
  double transfer_time_total = 0.0;  ///< summed input-staging delays
};

struct HeteroPrioCommOptions {
  /// Locality-aware candidate window (LAHeteroPrio-style): an idle worker
  /// inspects up to this many tasks from its end of the affinity queue and
  /// takes the one with the smallest input-staging delay (ties: closest to
  /// its queue end). 1 = the paper's communication-oblivious behavior.
  int locality_window = 1;
};

/// HeteroPrio with input-transfer delays. Priorities must be assigned.
[[nodiscard]] Schedule heteroprio_comm(const TaskGraph& graph,
                                       const Platform& platform,
                                       const CommModel& comm,
                                       std::span<const double> payloads,
                                       HeteroPrioCommStats* stats = nullptr,
                                       const HeteroPrioCommOptions& options = {});

}  // namespace hp
