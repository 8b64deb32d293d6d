#pragma once
// Reference HEFT: the straightforward implementation kept as a behavioral
// oracle for the engine in baselines/heft.cpp, which keeps one flat array
// of free gaps per worker.
//
// This is the pre-optimization code path: earliest_start() walks every
// busy segment of a worker looking for a usable gap, so placing n tasks is
// O(n * segments) per worker — quadratic overall and ~150x slower than the
// HeteroPrio hot path at n = 1e5. The optimized heft()/heft_independent()
// must produce bitwise-identical schedules; tests/test_heft_regression.cpp
// enforces that, and BENCH_dag.json reports the speedup.
//
// Limit: the oracle assumes strictly positive durations. Without insertion
// it appends after `segments_.back().end`, which is not the last finish
// once a zero-length segment sorts after a longer one with the same start;
// with zero durations its schedules can overlap blocks on a worker. Compare
// against it on positive durations only.

#include <span>

#include "baselines/heft.hpp"

namespace hp {

/// Reference HEFT on a DAG. Same contract as heft().
[[nodiscard]] Schedule heft_ref(const TaskGraph& graph,
                                const Platform& platform,
                                const HeftOptions& options = {});

/// Reference HEFT on independent tasks. Same contract as heft_independent().
[[nodiscard]] Schedule heft_independent_ref(std::span<const Task> tasks,
                                            const Platform& platform,
                                            const HeftOptions& options = {});

}  // namespace hp
