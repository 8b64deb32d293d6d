#include "util/arena.hpp"

namespace hp::util {

void Arena::coalesce() {
  const std::size_t total = reserved_bytes();
  blocks_.clear();
  blocks_.push_back(Block{std::make_unique<std::byte[]>(total), total});
}

Arena& scratch_arena() {
  // One arena per thread: the sweep driver runs schedulers on worker
  // threads concurrently, and runs on the same thread nest via ArenaScope.
  static thread_local Arena arena(1 << 20);
  return arena;
}

}  // namespace hp::util
