// Bump-pointer arena for per-panel / per-request kernel temporaries.
//
// The hot paths allocate short-lived scratch on every call: summarization
// needs per-shard k×k partials, and every fgrd request replays those
// allocations. An arena turns each of those into a pointer bump against
// memory that is allocated once per thread and reused forever: blocks are
// retained across Reset()/scope exits, so steady-state traffic performs
// zero heap allocations in the kernel core.
//
// Usage pattern (always through a scope, so nested callers compose):
//
//   ArenaScope scope(ThreadLocalArena());
//   double* scratch = scope.AllocateArray<double>(tile_cols * k);
//   ...                       // scratch dies when `scope` does
//
// Thread safety: an Arena is single-threaded by design — workers use their
// own ThreadLocalArena(). Do not allocate from one arena on two threads.
// The kernels' thread pool (util/parallel.h) and fgrd's workers keep their
// threads alive between calls, so the thread-local arenas amortize exactly
// like a global one would, without a lock on the bump pointer.

#ifndef FGR_UTIL_ARENA_H_
#define FGR_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

#include "util/check.h"

namespace fgr {

class Arena {
 public:
  // Every allocation is aligned at least this much — one cache line, which
  // is also what the SIMD kernels want for their streaming stores.
  static constexpr std::size_t kDefaultAlignment = 64;

  explicit Arena(std::size_t min_block_bytes = std::size_t{1} << 20)
      : min_block_bytes_(min_block_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Bump-allocates `bytes` aligned to `alignment` (a power of two ≤ the
  // block alignment). Memory is uninitialized and owned by the arena.
  void* Allocate(std::size_t bytes, std::size_t alignment = kDefaultAlignment) {
    FGR_DCHECK(alignment > 0 && (alignment & (alignment - 1)) == 0);
    FGR_DCHECK(alignment <= kDefaultAlignment);
    ++stats_.allocations;
    stats_.bytes_requested += bytes;
    std::size_t offset = Align(cursor_offset_, alignment);
    while (block_index_ < blocks_.size() &&
           offset + bytes > blocks_[block_index_].size) {
      ++block_index_;
      offset = 0;
    }
    if (block_index_ == blocks_.size()) {
      AddBlock(bytes);
      offset = 0;
    }
    Block& block = blocks_[block_index_];
    cursor_offset_ = offset + bytes;
    return block.data.get() + offset;
  }

  template <typename T>
  T* AllocateArray(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is never destructed");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T) > 16
                                                           ? alignof(T)
                                                           : kDefaultAlignment));
  }

  // Rewinds the bump pointer to the start of the first block. All blocks
  // are retained, so subsequent allocations reuse the same memory.
  void Reset() {
    block_index_ = 0;
    cursor_offset_ = 0;
    ++stats_.resets;
  }

  // Cumulative counters. `allocations`/`bytes_requested` count every
  // Allocate call; `blocks_allocated`/`bytes_reserved` only grow when the
  // arena genuinely goes to the heap — a steady value across repeated
  // passes is the proof that scratch is being reused.
  struct Stats {
    std::uint64_t allocations = 0;
    std::uint64_t bytes_requested = 0;
    std::uint64_t blocks_allocated = 0;
    std::uint64_t bytes_reserved = 0;
    std::uint64_t resets = 0;
  };
  const Stats& stats() const { return stats_; }

  // Watermark for scoped reuse; see ArenaScope.
  struct Mark {
    std::size_t block_index = 0;
    std::size_t cursor_offset = 0;
  };
  Mark mark() const { return {block_index_, cursor_offset_}; }
  void Rewind(Mark mark) {
    FGR_DCHECK(mark.block_index < blocks_.size() ||
               (mark.block_index == 0 && blocks_.empty()));
    block_index_ = mark.block_index;
    cursor_offset_ = mark.cursor_offset;
  }

 private:
  struct Deleter {
    void operator()(std::byte* p) const {
      ::operator delete[](p, std::align_val_t{kDefaultAlignment});
    }
  };
  struct Block {
    std::unique_ptr<std::byte[], Deleter> data;
    std::size_t size = 0;
  };

  static std::size_t Align(std::size_t offset, std::size_t alignment) {
    return (offset + alignment - 1) & ~(alignment - 1);
  }

  void AddBlock(std::size_t at_least) {
    std::size_t size = min_block_bytes_;
    if (size < at_least) size = Align(at_least, kDefaultAlignment);
    Block block;
    block.data.reset(static_cast<std::byte*>(
        ::operator new[](size, std::align_val_t{kDefaultAlignment})));
    block.size = size;
    blocks_.push_back(std::move(block));
    block_index_ = blocks_.size() - 1;
    cursor_offset_ = 0;
    ++stats_.blocks_allocated;
    stats_.bytes_reserved += size;
  }

  std::size_t min_block_bytes_;
  std::vector<Block> blocks_;
  std::size_t block_index_ = 0;   // block the cursor lives in
  std::size_t cursor_offset_ = 0; // next free byte within that block
  Stats stats_;
};

// The calling thread's arena. Worker threads (the kernel pool, fgrd workers)
// each get their own, reused across calls for the lifetime of the thread.
inline Arena& ThreadLocalArena() {
  thread_local Arena arena;
  return arena;
}

// RAII watermark: allocations made through (or after) the scope are
// released — returned to the arena for reuse, not to the heap — when the
// scope ends. Scopes nest; destroy in reverse construction order.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena) : arena_(&arena), mark_(arena.mark()) {}
  ~ArenaScope() { arena_->Rewind(mark_); }

  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

  void* Allocate(std::size_t bytes,
                 std::size_t alignment = Arena::kDefaultAlignment) {
    return arena_->Allocate(bytes, alignment);
  }
  template <typename T>
  T* AllocateArray(std::size_t count) {
    return arena_->AllocateArray<T>(count);
  }

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

}  // namespace fgr

#endif  // FGR_UTIL_ARENA_H_
