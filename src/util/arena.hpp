#pragma once
// Bump arena for per-run scheduler scratch.
//
// The scheduling hot paths allocate the same family of buffers on every run
// (ready keys, worker state, rank arrays, dual-approximation scratch). An
// Arena hands out those buffers by bumping a pointer into a reused block and
// reclaims them wholesale: either `rewind()` to a previously taken `Mark`
// (stack discipline, used by nested runs) or `reset()` back to empty. After
// the first run warms the arena no scheduler allocation hits the heap again.
//
// Lifetime rules (see docs/perf.md "Arena lifetime"):
//  - A span returned by `alloc` is valid until the arena is rewound past the
//    mark that was current when it was handed out. Never store arena
//    pointers across runs.
//  - `ArenaScope` is the only sanctioned way to free: it rewinds to the mark
//    taken at construction, so nested scopes (a scheduler invoked from
//    inside another scheduler's run) unwind LIFO.
//  - Only trivially copyable/destructible element types: nothing is ever
//    destroyed, memory is simply reused.

#include <cassert>
#include <cstddef>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace hp::util {

class Arena {
 public:
  explicit Arena(std::size_t initial_bytes = 1 << 16)
      : initial_bytes_(initial_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `count` elements of T, aligned for T.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "arena memory is reused without running destructors");
    return static_cast<T*>(alloc_bytes(count * sizeof(T), alignof(T)));
  }

  /// Zero-initialized span of `count` elements.
  template <typename T>
  [[nodiscard]] std::span<T> alloc_zeroed(std::size_t count) {
    T* p = alloc<T>(count);
    std::memset(static_cast<void*>(p), 0, count * sizeof(T));
    return {p, count};
  }

  /// Position in the arena; `rewind` frees everything allocated after it.
  struct Mark {
    std::size_t block = 0;
    std::size_t offset = 0;
  };

  [[nodiscard]] Mark mark() const noexcept { return Mark{current_, offset_}; }

  void rewind(Mark m) noexcept {
    assert(m.block < blocks_.size() || (m.block == 0 && blocks_.empty()));
    if (m.block < blocks_.size()) {
      current_ = m.block;
      offset_ = m.offset;
    }
  }

  void reset() noexcept {
    current_ = 0;
    offset_ = 0;
  }

  /// Total heap bytes backing the arena (capacity, not live allocations).
  [[nodiscard]] std::size_t reserved_bytes() const noexcept {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  /// High-water mark of live bytes over the arena's lifetime.
  [[nodiscard]] std::size_t high_water_bytes() const noexcept {
    return high_water_;
  }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> mem;
    std::size_t size = 0;
  };

  void* alloc_bytes(std::size_t bytes, std::size_t align) {
    if (current_ == 0 && offset_ == 0 && blocks_.size() > 1) coalesce();
    while (true) {
      if (current_ < blocks_.size()) {
        Block& b = blocks_[current_];
        const std::size_t at = (offset_ + align - 1) & ~(align - 1);
        if (at + bytes <= b.size) {
          offset_ = at + bytes;
          bump_high_water();
          return b.mem.get() + at;
        }
        // Doesn't fit here; try (or grow) the next block. The hole left at
        // the end of this block is reclaimed by the next rewind/reset.
        ++current_;
        offset_ = 0;
        continue;
      }
      // Need a fresh block: geometric growth from the last one so a warmed
      // arena is one or two blocks regardless of request pattern.
      const std::size_t prev = blocks_.empty() ? initial_bytes_ / 2
                                               : blocks_.back().size;
      std::size_t size = prev * 2;
      if (size < bytes + align) size = bytes + align;
      blocks_.push_back(Block{std::make_unique<std::byte[]>(size), size});
    }
  }

  /// Replace the blocks by one of their summed size. Called only when the
  /// arena is fully rewound, so nothing live points into them. Without it
  /// the first run to grow the arena would shape it for good: a later,
  /// larger live set would skip blocks too small for its buffers and grow
  /// new ones beside them. Out of line: alloc_bytes is inlined into every
  /// engine, and this rare path would crowd their inlining budget.
  void coalesce();

  void bump_high_water() noexcept {
    std::size_t live = offset_;
    for (std::size_t i = 0; i < current_; ++i) live += blocks_[i].size;
    if (live > high_water_) high_water_ = live;
  }

  std::size_t initial_bytes_;
  std::vector<Block> blocks_;
  std::size_t current_ = 0;  ///< block currently bumped into
  std::size_t offset_ = 0;   ///< bump offset within that block
  std::size_t high_water_ = 0;
};

/// The per-thread scratch arena shared by all scheduler engines. Each engine
/// run opens an ArenaScope on it; nested runs stack.
[[nodiscard]] Arena& scratch_arena();

/// RAII mark/rewind pair. Everything allocated from `arena` while the scope
/// is alive is reclaimed when it dies.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_.rewind(mark_); }
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

/// Minimal vector over arena storage for trivially copyable T. Growth
/// re-allocates from the arena (the abandoned block is reclaimed at the next
/// rewind); no destructors, no shrinking. Supports exactly what the
/// scheduler scratch needs: reserve/push/insert/erase/clear.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit ArenaVector(Arena& arena) : arena_(&arena) {}
  ArenaVector(Arena& arena, std::size_t initial_capacity) : arena_(&arena) {
    reserve(initial_capacity);
  }

  [[nodiscard]] T* begin() noexcept { return data_; }
  [[nodiscard]] T* end() noexcept { return data_ + size_; }
  [[nodiscard]] const T* begin() const noexcept { return data_; }
  [[nodiscard]] const T* end() const noexcept { return data_ + size_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] std::span<T> span() noexcept { return {data_, size_}; }
  [[nodiscard]] std::span<const T> span() const noexcept {
    return {data_, size_};
  }

  void reserve(std::size_t capacity) {
    if (capacity <= capacity_) return;
    T* grown = arena_->alloc<T>(capacity);
    if (size_ != 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = capacity;
  }

  void resize(std::size_t n) {
    reserve(n);
    size_ = n;
  }

  void clear() noexcept { size_ = 0; }

  void push_back(const T& value) {
    if (size_ == capacity_) grow();
    data_[size_++] = value;
  }

  void pop_back() noexcept { --size_; }

  /// Insert before `pos` (a pointer into [begin(), end()]).
  void insert(T* pos, const T& value) {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    if (size_ == capacity_) grow();  // grow() moves data_; recompute below
    T* p = data_ + at;
    std::memmove(p + 1, p, (size_ - at) * sizeof(T));
    *p = value;
    ++size_;
  }

  void erase(T* pos) noexcept {
    const std::size_t at = static_cast<std::size_t>(pos - data_);
    std::memmove(data_ + at, data_ + at + 1, (size_ - at - 1) * sizeof(T));
    --size_;
  }

 private:
  void grow() { reserve(capacity_ == 0 ? 8 : capacity_ * 2); }

  Arena* arena_;
  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

}  // namespace hp::util
