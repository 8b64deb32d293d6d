#pragma once
// Internal building blocks of the HeteroPrio engine (core/heteroprio.cpp):
// the double-ended ready structure, the spoliation victim ordering with its
// incremental per-resource running sets, the strict-improvement test of
// Algorithm 1, the idle-worker bitset, and the finish-array scans that find
// the next completion instant.
//
// This header is library-internal (not part of the public API in
// core/heteroprio.hpp). One event loop serves batch, online and
// communication-aware runs (core/hp_engine.hpp); the independent fast path
// shares the same ready order, victim order, improvement test and
// finish-array scans, so both paths pop tasks, scan victims and decide
// spoliation through the exact same code and their schedules stay bitwise
// identical.

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>

#include "model/task.hpp"
#include "model/task_soa.hpp"
#include "util/arena.hpp"
#include "util/key_sort.hpp"

#if defined(__SSE2__) && !defined(HP_NO_SIMD)
#include <emmintrin.h>
#define HP_ENGINE_SSE2 1
#endif

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
    reclaim_popped();
    const std::size_t live = size();
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

  /// Pop, from the GPU end (`gpu_end`) or the CPU end, the task of least
  /// `cost(id)` among the `window` tasks nearest that end (queue nonempty,
  /// window >= 1); a tie goes to the task nearer the end. The keys between
  /// that end and the popped one move one slot inward.
  template <typename Cost>
  TaskId pop_least(bool gpu_end, std::size_t window, Cost&& cost) {
    const std::size_t span = std::min(window, size());
    // Slot of the k-th key from the chosen end.
    const auto slot = [&](std::size_t k) {
      return gpu_end ? head_ + k : buf_.size() - 1 - k;
    };
    std::size_t best = 0;
    double best_cost = cost(static_cast<TaskId>(buf_[slot(0)].id));
    for (std::size_t k = 1; k < span; ++k) {
      const double c = cost(static_cast<TaskId>(buf_[slot(k)].id));
      if (c < best_cost) {
        best_cost = c;
        best = k;
      }
    }
    const std::size_t at = slot(best);
    const auto id = static_cast<TaskId>(buf_[at].id);
    if (gpu_end) {
      util::KeyId2* first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
      std::memmove(first + 1, first, best * sizeof(util::KeyId2));
      ++head_;
    } else {
      buf_.erase(buf_.begin() + static_cast<std::ptrdiff_t>(at));
    }
    return id;
  }

  /// The task the next pop at each end returns (queue nonempty), so its
  /// data can be prefetched while the current one runs.
  [[nodiscard]] TaskId gpu_end() const noexcept {
    return static_cast<TaskId>(buf_[head_].id);
  }
  [[nodiscard]] TaskId cpu_end() const noexcept {
    return static_cast<TaskId>(buf_[buf_.size() - 1].id);
  }

 private:
  void insert_key(const util::KeyId2& key) {
    if (buf_.size() == buf_.capacity()) reclaim_popped();
    util::KeyId2* first = buf_.begin() + static_cast<std::ptrdiff_t>(head_);
    util::KeyId2* at = std::lower_bound(first, buf_.end(), key, before);
    if (at == first && head_ > 0) {
      buf_[--head_] = key;  // reuse the space freed by GPU-end pops
    } else {
      buf_.insert(at, key);
    }
  }

  /// Reclaim the space GPU-end pops left behind once it is at least the
  /// live range. Each compaction moves at most as many keys as pops freed
  /// since the last one, and the buffer stays within a small multiple of
  /// the largest backlog instead of growing with every task a long run
  /// pops at the GPU end.
  void reclaim_popped() noexcept {
    const std::size_t live = size();
    if (head_ == 0 || head_ < live) return;
    std::memmove(buf_.begin(), buf_.begin() + head_,
                 live * sizeof(util::KeyId2));
    buf_.resize(live);
    head_ = 0;
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

/// Earliest entry of `finish` (idle lanes hold +inf; `count` is at least
/// two and padded to a multiple of two with +inf). The scalar min loop is a
/// serial minsd dependency chain — at ~4 cycles per link it dominates the
/// engine's inner loop — so the SSE2 form runs two independent accumulator
/// chains.
inline double min_finish_time(const double* finish,
                              std::size_t count) noexcept {
#ifdef HP_ENGINE_SSE2
  __m128d acc0 = _mm_loadu_pd(finish);
  __m128d acc1 = acc0;
  std::size_t w = 2;
  for (; w + 4 <= count; w += 4) {
    acc0 = _mm_min_pd(acc0, _mm_loadu_pd(finish + w));
    acc1 = _mm_min_pd(acc1, _mm_loadu_pd(finish + w + 2));
  }
  for (; w + 2 <= count; w += 2) {
    acc0 = _mm_min_pd(acc0, _mm_loadu_pd(finish + w));
  }
  acc0 = _mm_min_pd(acc0, acc1);
  acc0 = _mm_min_sd(acc0, _mm_unpackhi_pd(acc0, acc0));
  return _mm_cvtsd_f64(acc0);
#else
  double t = finish[0];
  for (std::size_t w = 1; w < count; ++w) t = std::min(t, finish[w]);
  return t;
#endif
}

/// Bitmask of lanes with finish[w] == t (the completion batch at instant
/// t), over at most 64 lanes; `count` is even.
inline std::uint64_t equal_finish_mask(const double* finish, std::size_t count,
                                       double t) noexcept {
  std::uint64_t mask = 0;
#ifdef HP_ENGINE_SSE2
  const __m128d vt = _mm_set1_pd(t);
  for (std::size_t w = 0; w + 2 <= count; w += 2) {
    const int bits =
        _mm_movemask_pd(_mm_cmpeq_pd(_mm_loadu_pd(finish + w), vt));
    mask |= static_cast<std::uint64_t>(bits) << w;
  }
#else
  for (std::size_t w = 0; w < count; ++w) {
    if (finish[w] == t) mask |= std::uint64_t{1} << w;
  }
#endif
  return mask;
}

/// The idle workers of a platform as a bitset over worker ids, in as many
/// 64-bit words as the platform needs. A dispatch pass visits a snapshot:
/// GPUs first, then CPUs, each in ascending id — exactly the list of
/// sim::WorkerPool::idle_workers_gpu_first() — so a worker idled during the
/// pass (a spoliation victim) is served on the next pass, not this one.
class IdleSet {
 public:
  /// Every worker starts idle.
  IdleSet(int workers, int cpus, util::Arena& arena)
      : words_(static_cast<std::size_t>(workers + 63) / 64),
        cpus_(cpus),
        workers_(workers),
        bits_(arena.alloc_zeroed<std::uint64_t>(words_).data()),
        snap_(arena.alloc<std::uint64_t>(words_)) {
    for (WorkerId w = 0; w < workers; ++w) insert(w);
  }

  /// `w` must not be in the set.
  void insert(WorkerId w) noexcept {
    bits_[static_cast<std::size_t>(w) >> 6] |= std::uint64_t{1} << (w & 63);
    ++count_;
  }
  /// `w` must be in the set.
  void erase(WorkerId w) noexcept {
    bits_[static_cast<std::size_t>(w) >> 6] &= ~(std::uint64_t{1} << (w & 63));
    --count_;
  }

  [[nodiscard]] int count() const noexcept { return count_; }

  /// The lowest idle worker id (the set is nonempty).
  [[nodiscard]] WorkerId first() const noexcept {
    std::size_t k = 0;
    while (bits_[k] == 0) ++k;
    return static_cast<WorkerId>(k * 64) +
           static_cast<WorkerId>(std::countr_zero(bits_[k]));
  }

  /// Call `visit(w)` for each worker idle at the call, GPUs first.
  template <typename F>
  void for_each_gpu_first(F&& visit) {
    for (std::size_t k = 0; k < words_; ++k) snap_[k] = bits_[k];
    visit_range(cpus_, workers_, visit);
    visit_range(0, cpus_, visit);
  }

 private:
  template <typename F>
  void visit_range(int lo, int hi, F& visit) const {
    for (int base = lo & ~63; base < hi; base += 64) {
      std::uint64_t bits = snap_[static_cast<std::size_t>(base) >> 6];
      if (base < lo) bits &= ~std::uint64_t{0} << (lo - base);
      if (hi - base < 64) bits &= (std::uint64_t{1} << (hi - base)) - 1;
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        bits &= bits - 1;
        visit(static_cast<WorkerId>(base + b));
      }
    }
  }

  std::size_t words_;
  int cpus_;
  int workers_;
  std::uint64_t* bits_;
  std::uint64_t* snap_;
  int count_ = 0;
};

}  // namespace hp::detail
