#pragma once
// Stable discrete-event queue.
//
// A binary min-heap ordered by (time, sequence number). The sequence number
// makes simultaneous events pop in insertion order, which keeps every
// scheduler in this library fully deterministic (a core requirement: the
// worst-case constructions of Thms 8/11/14 rely on reproducible
// tie-breaking).
//
// claim_seq() hands out the next number without pushing. A caller that
// keeps some events outside the heap (the HeteroPrio event loop keeps
// completions in a per-worker finish array and deadlines in a sorted
// cursor) claims a number for each one where it would have pushed, and
// merges them with top() by (time, seq): the same total order as if every
// event had gone through the heap.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace hp::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Event {
    double time;
    std::uint64_t seq;
    Payload payload;
  };

  void push(double time, Payload payload) {
    heap_.push_back(Event{time, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  /// Take the sequence number the next push would get, for an event kept
  /// outside the heap. Pushes after it order after it at equal times.
  [[nodiscard]] std::uint64_t claim_seq() noexcept { return next_seq_++; }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Earliest event (undefined if empty).
  [[nodiscard]] const Event& top() const noexcept { return heap_.front(); }

  Event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Event e = std::move(heap_.back());
    heap_.pop_back();
    return e;
  }

  /// Time of the earliest event iff it is strictly before `t`; nullopt when
  /// the queue is empty or the next event is at or after `t`. Lets a
  /// rolling-horizon loop ask "does anything happen before this horizon?"
  /// without popping.
  [[nodiscard]] std::optional<double> time_if_before(double t) const noexcept {
    if (heap_.empty() || heap_.front().time >= t) return std::nullopt;
    return heap_.front().time;
  }

  void clear() noexcept {
    heap_.clear();
    next_seq_ = 0;
  }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hp::sim
