#pragma once
// Lock-free MPMC intake queue for the scheduling service: a linked list of
// fixed-capacity ring segments (the BLQueue/RingsQueue family), with
// `util::StripedEpoch` guarding segment reclamation.
//
// Each segment hands out enqueue/dequeue tickets with fetch_add; ticket t
// maps to slot t of the segment. A slot is a tiny state machine:
//
//   kEmpty --CAS by the producer holding ticket t--> kFull
//   kEmpty --exchange by a consumer that outran the producer--> kPoisoned
//
// A producer whose CAS finds poison simply takes the next ticket (its
// per-producer FIFO order is preserved: tickets only grow). When a segment
// runs out of tickets the thread links a fresh segment behind it and
// advances the shared tail; the consumer that moves the shared head past a
// drained segment retires it through the epoch, and the segment recycles
// into a pooled freelist once every thread that could still hold a pointer
// into it has moved on. Under steady-state churn allocation stays flat up
// to preemption transients: a thread descheduled inside its epoch guard
// pins reclamation for its quantum, and peers fall back to allocating
// (bounded memory traded for non-blocking progress; asserted by tests).
//
// Consumers are entitled through `items_`, a count of published-but-
// unconsumed values: try_pop first CAS-decrements it (so consumers never
// chase values that do not exist), then walks dequeue tickets until it
// claims a full slot. If the walk hits the end of the chain — the entitled
// value is still mid-flight in an outrun producer — the entitlement is
// returned and try_pop fails *spuriously*: callers must treat `false` as
// "retry later" unless they know producers have quiesced. This keeps the
// queue non-blocking instead of spinning on a stalled peer.
//
// `capacity` bounds the values concurrently in custody (0 = unbounded; the
// service bounds intake with admission watermarks instead and leaves the
// queue structurally unbounded: bounded ring segments + linked overflow).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <vector>

#include "util/striped_epoch.hpp"

namespace hp::serve {

template <typename T>
class MpmcQueue {
  static_assert(std::is_trivially_copyable_v<T>,
                "queue payloads are raw slots; pass pointers to rich data");

 public:
  /// `slots` epoch participants (every thread that pushes or pops needs its
  /// own index in [0, slots)); `segment_capacity` ring slots per segment;
  /// `capacity` caps values concurrently in custody (0 = unbounded).
  explicit MpmcQueue(std::size_t slots, std::uint32_t segment_capacity = 256,
                     std::size_t capacity = 0)
      : epoch_(slots),
        segment_capacity_(segment_capacity < 2 ? 2 : segment_capacity),
        capacity_(capacity) {
    Segment* first = acquire_segment();
    head_.store(first, std::memory_order_relaxed);
    tail_.store(first, std::memory_order_relaxed);
  }

  ~MpmcQueue() {
    // All participants have left: storage_ owns every segment ever
    // allocated, so dropping the pool frees the chain and the freelist.
    std::vector<void*> scratch;
    epoch_.drain(scratch);
  }

  MpmcQueue(const MpmcQueue&) = delete;
  MpmcQueue& operator=(const MpmcQueue&) = delete;

  /// Publish `value` from epoch participant `slot`. Fails only when the
  /// custody cap is hit (never spuriously); unbounded queues always accept.
  bool try_push(std::size_t slot, T value) {
    if (capacity_ != 0) {
      std::size_t in_custody = custody_.load(std::memory_order_relaxed);
      for (;;) {
        if (in_custody >= capacity_) return false;
        if (custody_.compare_exchange_weak(in_custody, in_custody + 1,
                                           std::memory_order_relaxed)) {
          break;
        }
      }
    }
    const util::EpochGuard guard(epoch_, slot);
    for (;;) {
      Segment* tail = tail_.load(std::memory_order_acquire);
      const std::uint64_t ticket =
          tail->enq.load(std::memory_order_relaxed) < segment_capacity_
              ? tail->enq.fetch_add(1, std::memory_order_acq_rel)
              : segment_capacity_;
      if (ticket < segment_capacity_) {
        Slot& s = tail->slots[ticket];
        s.value = value;
        std::uint32_t expected = kEmpty;
        if (s.state.compare_exchange_strong(expected, kFull,
                                            std::memory_order_acq_rel)) {
          // The release-increment is what entitles a consumer; it also
          // publishes any tail/next links installed above, so an entitled
          // consumer can always reach its value's segment.
          items_.fetch_add(1, std::memory_order_release);
          return true;
        }
        continue;  // a consumer outran us and poisoned the ticket
      }
      advance_tail(tail);
    }
  }

  /// Claim one value into `*out` from epoch participant `slot`. Returns
  /// false when empty — or *spuriously* when the entitled value is still
  /// mid-flight in an outrun producer (see the header comment); callers
  /// retry unless producers are known to have quiesced.
  bool try_pop(std::size_t slot, T* out) {
    std::uint64_t published = items_.load(std::memory_order_acquire);
    for (;;) {
      if (published == 0) return false;
      if (items_.compare_exchange_weak(published, published - 1,
                                       std::memory_order_acq_rel)) {
        break;
      }
    }
    const util::EpochGuard guard(epoch_, slot);
    for (;;) {
      Segment* head = head_.load(std::memory_order_acquire);
      const std::uint64_t ticket =
          head->deq.load(std::memory_order_relaxed) < segment_capacity_
              ? head->deq.fetch_add(1, std::memory_order_acq_rel)
              : segment_capacity_;
      if (ticket < segment_capacity_) {
        Slot& s = head->slots[ticket];
        // Brief grace for a producer that holds this ticket but has not
        // published yet; then poison so we can move on to the next ticket.
        std::uint32_t seen = s.state.load(std::memory_order_acquire);
        for (int spin = 0; seen == kEmpty && spin < kProducerGraceSpins;
             ++spin) {
          seen = s.state.load(std::memory_order_acquire);
        }
        if (s.state.exchange(kPoisoned, std::memory_order_acq_rel) == kFull) {
          *out = s.value;
          if (capacity_ != 0) {
            custody_.fetch_sub(1, std::memory_order_relaxed);
          }
          return true;
        }
        continue;  // poisoned an empty ticket; its producer will retry
      }
      // Segment exhausted. A published value in a later segment implies the
      // producer linked `next` before its items_ increment, so a null link
      // means our value is mid-flight in *this* segment: give the
      // entitlement back and fail spuriously rather than spin on the peer.
      Segment* next = head->next.load(std::memory_order_acquire);
      if (next == nullptr) {
        items_.fetch_add(1, std::memory_order_release);
        return false;
      }
      // Help a stalled linker first: tail_ must move past this segment
      // before head_ does, so a retired segment is never reachable through
      // tail_ — a producer entering after the retirement could otherwise
      // publish into a recycled segment (epoch pinning only protects
      // threads that entered before the retire).
      Segment* tail = tail_.load(std::memory_order_acquire);
      if (tail == head) {
        tail_.compare_exchange_strong(tail, next,
                                      std::memory_order_acq_rel);
      }
      if (head_.compare_exchange_strong(head, next,
                                        std::memory_order_acq_rel)) {
        epoch_.retire(slot, head);  // recycled once the grace period passes
      }
    }
  }

  /// Published-but-unconsumed values (exact once producers quiesce).
  [[nodiscard]] std::size_t approx_size() const noexcept {
    return static_cast<std::size_t>(items_.load(std::memory_order_acquire));
  }

  /// Segments ever allocated / recycled through the epoch freelist. The
  /// churn regression: allocated stays flat while recycled grows.
  [[nodiscard]] std::size_t segments_allocated() const noexcept {
    return segments_allocated_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::size_t segments_recycled() const noexcept {
    return segments_recycled_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t epoch_slots() const noexcept {
    return epoch_.slots();
  }

 private:
  enum : std::uint32_t { kEmpty = 0, kFull = 1, kPoisoned = 2 };
  static constexpr int kProducerGraceSpins = 128;

  struct Slot {
    std::atomic<std::uint32_t> state{kEmpty};
    T value;
  };

  struct alignas(util::kEpochSlotStride) Segment {
    explicit Segment(std::uint32_t capacity)
        : slots(std::make_unique<Slot[]>(capacity)) {}

    void reset(std::uint32_t capacity) {
      enq.store(0, std::memory_order_relaxed);
      deq.store(0, std::memory_order_relaxed);
      next.store(nullptr, std::memory_order_relaxed);
      for (std::uint32_t i = 0; i < capacity; ++i) {
        slots[i].state.store(kEmpty, std::memory_order_relaxed);
      }
    }

    std::atomic<std::uint64_t> enq{0};
    std::atomic<std::uint64_t> deq{0};
    std::atomic<Segment*> next{nullptr};
    std::unique_ptr<Slot[]> slots;
  };

  void advance_tail(Segment* tail) {
    Segment* next = tail->next.load(std::memory_order_acquire);
    if (next == nullptr) {
      Segment* fresh = acquire_segment();
      Segment* expected = nullptr;
      if (tail->next.compare_exchange_strong(expected, fresh,
                                             std::memory_order_acq_rel)) {
        next = fresh;
      } else {
        release_unpublished(fresh);  // lost the link race; never published
        next = expected;
      }
    }
    tail_.compare_exchange_strong(tail, next, std::memory_order_acq_rel);
  }

  Segment* acquire_segment() {
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    // Opportunistic reclaim: retired heads whose grace period has elapsed
    // go back on the freelist, so steady-state churn allocates nothing.
    reclaim_scratch_.clear();
    epoch_.try_reclaim(reclaim_scratch_);
    for (void* block : reclaim_scratch_) {
      free_.push_back(static_cast<Segment*>(block));
      segments_recycled_.fetch_add(1, std::memory_order_release);
    }
    if (!free_.empty()) {
      Segment* segment = free_.back();
      free_.pop_back();
      segment->reset(segment_capacity_);
      return segment;
    }
    storage_.push_back(std::make_unique<Segment>(segment_capacity_));
    segments_allocated_.fetch_add(1, std::memory_order_release);
    return storage_.back().get();
  }

  void release_unpublished(Segment* segment) {
    // Never linked into the chain, so no grace period is needed.
    const std::lock_guard<std::mutex> lock(pool_mutex_);
    free_.push_back(segment);
  }

  util::StripedEpoch epoch_;
  const std::uint32_t segment_capacity_;
  const std::size_t capacity_;

  alignas(util::kEpochSlotStride) std::atomic<Segment*> head_{nullptr};
  alignas(util::kEpochSlotStride) std::atomic<Segment*> tail_{nullptr};
  alignas(util::kEpochSlotStride) std::atomic<std::uint64_t> items_{0};
  alignas(util::kEpochSlotStride) std::atomic<std::size_t> custody_{0};

  std::mutex pool_mutex_;
  std::vector<std::unique_ptr<Segment>> storage_;
  std::vector<Segment*> free_;
  std::vector<void*> reclaim_scratch_;
  std::atomic<std::size_t> segments_allocated_{0};
  std::atomic<std::size_t> segments_recycled_{0};
};

}  // namespace hp::serve
