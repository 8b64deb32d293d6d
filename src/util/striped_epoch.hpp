#pragma once
// Striped epoch-based reclamation for retired blocks shared across threads.
//
// The scheduling service's lock-free intake queue (serve/mpmc_queue.hpp)
// links fixed-capacity ring segments that producers and consumers read
// concurrently. When a consumer moves the head past a drained segment, the
// segment's memory cannot be recycled until every thread that might still
// hold a raw pointer into it has moved on. Full hazard pointers are
// overkill for that pattern — threads touch a segment only inside one push
// or pop — so we use the classic epoch scheme, striped per participant to
// keep the hot path to one relaxed load + one release store on a
// thread-private cache line:
//
//   * A global epoch counter advances by 1 whenever someone retires memory.
//   * Each participant slot records the epoch it observed when it entered
//     its critical region (kIdle when outside one).
//   * A block retired in epoch E is reclaimable once every slot is idle or
//     has observed an epoch > E: nobody can still hold a pointer read
//     before the retirement.
//
// Reclamation here means "hand the block back to the owner", not free():
// the queue keeps segments in a pooled freelist, so `try_reclaim` returns
// the retired records whose grace period has elapsed and the caller
// recycles them. Retired segments are reclaimed opportunistically whenever
// a new one is needed, so no forced flush is required; `drain` exists for
// teardown when all participants have left.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hp::util {

/// One cache line per participant so epoch publication never false-shares.
inline constexpr std::size_t kEpochSlotStride = 64;

class StripedEpoch {
 public:
  using Epoch = std::uint64_t;

  /// Sentinel published by participants outside any critical region.
  static constexpr Epoch kIdle = ~Epoch{0};

  /// `slots` participants (worker threads), identified by index [0, slots).
  explicit StripedEpoch(std::size_t slots);
  ~StripedEpoch();

  StripedEpoch(const StripedEpoch&) = delete;
  StripedEpoch& operator=(const StripedEpoch&) = delete;

  [[nodiscard]] std::size_t slots() const noexcept { return num_slots_; }

  /// Enter a critical region: pins the current epoch for `slot`. Regions do
  /// not nest (the engine takes one per scheduling decision).
  void enter(std::size_t slot) noexcept;

  /// Leave the critical region entered by `slot`.
  void leave(std::size_t slot) noexcept;

  /// Record `block` as retired in the current epoch and advance the global
  /// epoch. Called by the thread that unlinked the block from the shared
  /// structure; callers may be inside their own critical region.
  void retire(std::size_t slot, void* block);

  /// Move every retired block whose grace period has elapsed into `out`
  /// (appending) and return how many were reclaimed. Safe to call from any
  /// participant, inside or outside a critical region.
  std::size_t try_reclaim(std::vector<void*>& out);

  /// Reclaim everything unconditionally. Only valid once no participant is
  /// inside a critical region and no more retires will happen (end of run).
  void drain(std::vector<void*>& out);

  /// Current global epoch (testing / counters).
  [[nodiscard]] Epoch current_epoch() const noexcept {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// Number of blocks retired but not yet reclaimed (testing / counters).
  [[nodiscard]] std::size_t pending() const;

 private:
  struct Retired {
    void* block;
    Epoch epoch;
  };

  /// Minimum epoch any participant may still be reading under, i.e. the
  /// smallest pinned epoch, or the current epoch when everyone is idle.
  [[nodiscard]] Epoch min_observed() const noexcept;

  [[nodiscard]] std::atomic<Epoch>& slot_at(std::size_t slot) noexcept;
  [[nodiscard]] const std::atomic<Epoch>& slot_at(
      std::size_t slot) const noexcept;

  std::size_t num_slots_;
  // Raw stripe storage: one atomic per kEpochSlotStride bytes.
  unsigned char* stripes_;
  std::atomic<Epoch> global_epoch_{1};

  // Retires from any participant share this spinlock; they happen once per
  // drained block, far off the per-operation hot path.
  std::atomic_flag retired_lock_ = ATOMIC_FLAG_INIT;
  std::vector<Retired> retired_;
};

/// RAII critical region over a StripedEpoch slot.
class EpochGuard {
 public:
  EpochGuard(StripedEpoch& epoch, std::size_t slot) noexcept
      : epoch_(epoch), slot_(slot) {
    epoch_.enter(slot_);
  }
  ~EpochGuard() { epoch_.leave(slot_); }

  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  StripedEpoch& epoch_;
  std::size_t slot_;
};

}  // namespace hp::util
