// Monotonic chunked arena for short-lived per-simulation state. A sweep
// runs thousands of simulations back to back, and each one allocates (and
// frees) the same shapes: 4 KiB simulated-memory pages, staging scratch,
// queue storage. Serving those from a worker-owned arena that is reset()
// between runs turns that churn into pointer bumps over chunks that are
// allocated once and recycled for the whole sweep.
//
// Threading: none. An arena belongs to one sweep worker, and every
// simulation runs on the thread that owns it. reset() invalidates every
// outstanding allocation, so it must only run between simulations (the
// driver resets at task boundaries, after the previous simulation's
// objects are destroyed).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bitutil.hpp"

namespace issr {

class Arena {
 public:
  /// `chunk_bytes` is the granularity of growth; allocations larger than
  /// a chunk get a dedicated oversize chunk of exactly their size.
  explicit Arena(std::size_t chunk_bytes = std::size_t{1} << 20)
      : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `bytes` aligned to `align` (a power of two, at most
  /// alignof(std::max_align_t) — chunk storage comes from new[]). The
  /// memory is uninitialized and lives until reset() or destruction.
  void* allocate(std::size_t bytes,
                 std::size_t align = alignof(std::max_align_t)) {
    assert(is_pow2(align) && align <= alignof(std::max_align_t));
    if (!advance_to_fit(bytes, align)) return new_chunk(bytes);
    const std::size_t cursor = align_up(cursor_, align);
    std::uint8_t* p = chunks_[chunk_].data.get() + cursor;
    cursor_ = cursor + bytes;
    return p;
  }

  /// Typed array allocation (uninitialized storage).
  template <typename T>
  T* allocate_array(std::size_t count) {
    return static_cast<T*>(allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewind to empty, keeping every chunk for reuse. All pointers handed
  /// out since the last reset become dangling.
  void reset() {
    chunk_ = 0;
    cursor_ = 0;
    ++generation_;
  }

  /// Total chunk storage owned (monitoring: stabilizes after the first
  /// few simulations once the high-water mark is reached).
  std::size_t reserved_bytes() const {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }
  std::size_t chunk_count() const { return chunks_.size(); }
  /// Number of reset() calls; lets tests assert recycling happened.
  std::uint64_t generation() const { return generation_; }

 private:
  struct Chunk {
    std::unique_ptr<std::uint8_t[]> data;
    std::size_t size = 0;
  };

  /// Move to the next existing chunk that can hold `bytes`; false if the
  /// request needs a fresh chunk.
  bool advance_to_fit(std::size_t bytes, std::size_t align) {
    while (chunk_ < chunks_.size()) {
      const std::size_t cursor = align_up(cursor_, align);
      if (cursor + bytes <= chunks_[chunk_].size) return true;
      ++chunk_;
      cursor_ = 0;
    }
    return false;
  }

  void* new_chunk(std::size_t bytes) {
    Chunk c;
    c.size = bytes > chunk_bytes_ ? bytes : chunk_bytes_;
    c.data = std::make_unique<std::uint8_t[]>(c.size);
    chunks_.push_back(std::move(c));
    chunk_ = chunks_.size() - 1;
    cursor_ = bytes;
    return chunks_.back().data.get();
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;   ///< index of the chunk being bumped
  std::size_t cursor_ = 0;  ///< offset of the next allocation in chunk_
  std::uint64_t generation_ = 0;
};

}  // namespace issr
