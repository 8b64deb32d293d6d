#pragma once
// Internal building blocks shared by the batch HeteroPrio engine
// (core/heteroprio.cpp) and the online rolling-horizon runtime
// (online/runtime.cpp): the double-ended ready structure, the spoliation
// victim ordering with its incremental per-resource running sets, and the
// strict-improvement test of Algorithm 1.
//
// This header is library-internal (not part of the public API in
// core/heteroprio.hpp). Both engines must pop tasks, scan victims and
// decide spoliation through the exact same code so that the online
// runtime's correctness anchor holds: all arrivals at t=0 with no faults
// is bitwise-identical to the batch engine.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "model/task.hpp"
#include "model/task_soa.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

namespace hp::detail {

/// Double-ended ready structure, a flat sorted vector in both modes. The
/// order: the GPU end (front) holds the task an idle GPU takes, the CPU end
/// (back) the task an idle CPU takes. Primary key: acceleration factor,
/// non-increasing. Tie-break (§2.2): for rho >= 1 the highest-priority task
/// comes first; for rho < 1 the highest-priority task comes last, i.e.
/// nearest the CPU end. Final tie: task id (determinism).
///
/// The order is materialized once per task as a packed integer pair
/// (TaskSoA::key0/key1): ascending (key0, key1, id) is exactly the queue
/// order, so the presort is a bucket/radix pass over integers and inserts
/// binary-search with branch-light integer compares. The packed compare is
/// proven equivalent to the double comparator in model/task_soa.hpp, so the
/// pop order (and therefore the schedule) is bitwise identical.
///
/// Three ways in, one result: (key0, key1, id) is a total order, so the live
/// range holds the same sorted keys whether a set of tasks arrives through
/// presort_all, through single inserts in any order, or through
/// insert_batch. Costs for k new keys on a backlog of b:
///  - insert: one binary search and one memmove of the keys above it,
///    O(log b + b) — the path of the batch DAG engine's releases;
///  - insert_batch: a k-key sort, then one linear merge from the CPU end
///    down that moves each resident key above the smallest new key once,
///    O(k log k + b) per batch instead of O(k b). The online runtime inserts
///    each drained instant this way; with every arrival at t=0 it costs
///    what presort_all costs.
class ReadyQueue {
 public:
  ReadyQueue(const soa::TaskSoA& soa, util::Arena& arena)
      : soa_(&soa), buf_(arena) {}

  /// Independent mode: make every task ready and presort once.
  void presort_all(std::size_t n, util::Arena& arena) {
    buf_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      buf_[i] = key_of(static_cast<TaskId>(i));
    }
    util::sort_key2_id(buf_.span(), arena);
    head_ = 0;
  }

  /// Incremental mode: a dependency release (or re-enqueue) made `id` ready.
  void insert(TaskId id) { insert_key(key_of(id)); }

  /// Queue key of `id`, for collecting an insert_batch.
  [[nodiscard]] util::KeyId2 key_of(TaskId id) const noexcept {
    const auto i = static_cast<std::size_t>(id);
    return util::KeyId2{soa_->key0[i], soa_->key1[i],
                        static_cast<std::uint32_t>(id)};
  }

  /// Make the tasks of `keys` (from key_of, any order, no task twice and
  /// none already queued) ready at once. Sorts `keys` in place; scratch
  /// comes from `arena`.
  void insert_batch(std::span<util::KeyId2> keys, util::Arena& arena) {
    const std::size_t k = keys.size();
    if (k <= 1) {
      if (k == 1) insert_key(keys[0]);
      return;
    }
    util::sort_key2_id(keys, arena);
    const std::size_t live = size();
    if (head_ > 0 && head_ >= live) {
      // Reclaim the space GPU-end pops left behind: each compaction moves
      // at most as many keys as pops freed since the last one.
      std::memmove(buf_.begin(), buf_.begin() + head_,
                   live * sizeof(util::KeyId2));
      buf_.resize(live);
      head_ = 0;
    }
    const std::size_t need = buf_.size() + k;
    if (need > buf_.capacity()) {
      buf_.reserve(std::max(need, 2 * buf_.capacity()));
    }
    buf_.resize(need);
    util::KeyId2* first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
    // Merge from the CPU end down: `hi` resident keys are still unmoved, and
    // the j keys left to place go below the slot being written. Residents
    // below the smallest new key never move.
    std::size_t hi = live;
    std::size_t out = live + k;
    for (std::size_t j = k; j > 0;) {
      if (hi > 0 && before(keys[j - 1], first[hi - 1])) {
        first[--out] = first[--hi];
      } else {
        first[--out] = keys[--j];
      }
    }
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == buf_.size(); }

  [[nodiscard]] std::size_t size() const noexcept {
    return buf_.size() - head_;
  }

  /// Most GPU-friendly ready task (an idle GPU takes this end).
  TaskId pop_gpu_end() { return static_cast<TaskId>(buf_[head_++].id); }

  /// Most CPU-friendly ready task (an idle CPU takes this end).
  TaskId pop_cpu_end() {
    const TaskId id = static_cast<TaskId>(buf_.back().id);
    buf_.pop_back();
    return id;
  }

 private:
  void insert_key(const util::KeyId2& key) {
    util::KeyId2* first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
    util::KeyId2* at = std::lower_bound(first, buf_.end(), key, before);
    if (at == first && head_ > 0) {
      buf_[--head_] = key;  // reuse the space freed by GPU-end pops
    } else {
      buf_.insert(at, key);
    }
  }

  static bool before(const util::KeyId2& a, const util::KeyId2& b) noexcept {
    if (a.k0 != b.k0) return a.k0 < b.k0;
    if (a.k1 != b.k1) return a.k1 < b.k1;
    return a.id < b.id;
  }

  const soa::TaskSoA* soa_;
  util::ArenaVector<util::KeyId2> buf_;  ///< live range: [head_, size())
  std::size_t head_ = 0;
};

/// Cached spoliation-scan key of one running task. `finish` is the believed
/// completion time (start + *estimated* duration), computed once at start
/// instead of re-deriving Platform::time_on per comparison.
struct VictimKey {
  double finish = 0.0;
  double priority = 0.0;
  TaskId task = kInvalidTask;
  WorkerId worker = -1;
};

/// Scan order of Algorithm 1 / §6.2: decreasing believed completion time
/// with priority tie-break (independent), or decreasing priority with
/// completion-time tie-break (DAGs). Final tie: task id, so the order is
/// total and the incremental set reproduces the reference sort exactly.
struct VictimLess {
  bool priority_first = false;

  bool operator()(const VictimKey& a, const VictimKey& b) const noexcept {
    if (priority_first) {
      if (a.priority != b.priority) return a.priority > b.priority;
      if (a.finish != b.finish) return a.finish > b.finish;
    } else {
      if (a.finish != b.finish) return a.finish > b.finish;
      if (a.priority != b.priority) return a.priority > b.priority;
    }
    return a.task < b.task;
  }
};

/// The per-resource running set, ordered by VictimLess. A flat sorted vector
/// rather than a node-based set: the capacity is bounded by the worker count
/// of one resource, so a binary-search insert plus a short memmove is both
/// O(log W) in comparisons and allocation-free — the std::set node churn was
/// measurable at 2 ops per scheduled task.
class RunningSet {
 public:
  RunningSet(VictimLess less, std::size_t max_workers, util::Arena& arena)
      : less_(less), keys_(arena, max_workers) {}

  void insert(const VictimKey& key) {
    keys_.insert(std::lower_bound(keys_.begin(), keys_.end(), key, less_),
                 key);
  }

  void erase(const VictimKey& key) {
    VictimKey* it = std::lower_bound(keys_.begin(), keys_.end(), key, less_);
    assert(it != keys_.end() && it->worker == key.worker);
    keys_.erase(it);
  }

  [[nodiscard]] const VictimKey* begin() const noexcept {
    return keys_.begin();
  }
  [[nodiscard]] const VictimKey* end() const noexcept { return keys_.end(); }

 private:
  VictimLess less_;
  util::ArenaVector<VictimKey> keys_;
};

/// Strict-improvement test with a small relative margin, so that the exact
/// "equal completion time" cases of Theorems 8/11/14 (where spoliation must
/// NOT fire) are not flipped by floating-point noise.
inline bool strictly_better(double candidate_finish,
                            double current_finish) noexcept {
  const double margin = 1e-9 * std::max(1.0, std::abs(current_finish));
  return candidate_finish < current_finish - margin;
}

}  // namespace hp::detail
