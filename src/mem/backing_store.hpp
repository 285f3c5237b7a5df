// Functional byte-addressable storage backing every simulated memory.
// Timing lives in the port/bank models (ideal_mem, tcdm, main_mem); this
// class only holds bytes. Pages are allocated lazily so a sparse 4 GiB
// address space costs only what is touched.
//
// A store built over a fixed window (the TCDM's 256 KiB) finds the
// window's pages by direct index into a dense page table; every other
// page lives in a hash map behind a last-page memo, which suits the
// open-ended ranges of IdealMemory and MainMemory.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/arena.hpp"
#include "common/types.hpp"

namespace issr::mem {

class BackingStore {
 public:
  static constexpr std::size_t kPageBytes = 4096;

  BackingStore() = default;
  /// A store whose pages in [window_base, window_base + window_bytes) are
  /// found by direct index; both bounds must be page-aligned. Window
  /// pages still materialize lazily, on first write.
  BackingStore(addr_t window_base, std::uint64_t window_bytes);

  /// Serve page storage from `arena` instead of the heap. Must be called
  /// before the first access; the arena must outlive the store, and may
  /// only be reset() once the store is destroyed (or never touched
  /// again). A sweep worker points every simulation's stores at its own
  /// arena and resets it between runs, so page allocation across a long
  /// sweep is a pointer bump over recycled chunks instead of malloc.
  void set_arena(Arena* arena) {
    assert(allocated_pages() == 0 &&
           "set_arena must precede the first access");
    arena_ = arena;
  }

  std::uint8_t load_u8(addr_t addr) const;
  std::uint16_t load_u16(addr_t addr) const;
  std::uint32_t load_u32(addr_t addr) const;
  std::uint64_t load_u64(addr_t addr) const;
  double load_f64(addr_t addr) const;

  void store_u8(addr_t addr, std::uint8_t v);
  void store_u16(addr_t addr, std::uint16_t v);
  void store_u32(addr_t addr, std::uint32_t v);
  void store_u64(addr_t addr, std::uint64_t v);
  void store_f64(addr_t addr, double v);

  /// Generic little-endian load/store of 1, 2, 4 or 8 bytes.
  std::uint64_t load(addr_t addr, unsigned bytes) const;
  void store(addr_t addr, std::uint64_t v, unsigned bytes);

  /// Caller-owned page memo for hot per-stream access paths (the fused
  /// tier's lane bypass): each stream walks its own pages, so a private
  /// memo avoids thrashing the shared internal one below. Safe for the
  /// same reasons: page storage never moves and pages are never freed;
  /// absent pages are not memoized (a later store materializes them).
  struct PageMemo {
    addr_t page = ~addr_t{0};
    std::uint8_t* data = nullptr;
  };

  std::uint64_t load_u64(addr_t addr, PageMemo& memo) const {
    const std::size_t off = addr % kPageBytes;
    if (addr / kPageBytes == memo.page && off + 8 <= kPageBytes) {
      std::uint64_t v;
      std::memcpy(&v, memo.data + off, 8);
      return v;
    }
    return load_u64_memo_miss(addr, memo);
  }

  void store_u64(addr_t addr, std::uint64_t v, PageMemo& memo) {
    const std::size_t off = addr % kPageBytes;
    if (addr / kPageBytes == memo.page && off + 8 <= kPageBytes) {
      std::memcpy(memo.data + off, &v, 8);
      return;
    }
    store_u64_memo_miss(addr, v, memo);
  }

  void write_block(addr_t addr, const void* src, std::size_t bytes);
  void read_block(addr_t addr, void* dst, std::size_t bytes) const;

  /// Convenience bulk writers for kernel data staging.
  void write_doubles(addr_t addr, const double* src, std::size_t count);
  void read_doubles(addr_t addr, double* dst, std::size_t count) const;
  void write_u32s(addr_t addr, const std::uint32_t* src, std::size_t count);

  /// Number of lazily-allocated pages (test/diagnostic hook).
  std::size_t allocated_pages() const;

 private:
  /// Page `idx`'s bytes, or null when it is not materialized. Leaves the
  /// last-page memo alone.
  std::uint8_t* find_page(addr_t idx) const;
  const std::uint8_t* page_for_read(addr_t addr) const;
  std::uint8_t* page_for_write(addr_t addr);
  std::uint8_t* allocate_page();
  std::uint64_t load_u64_memo_miss(addr_t addr, PageMemo& memo) const;
  void store_u64_memo_miss(addr_t addr, std::uint64_t v, PageMemo& memo);

  // Page index -> page bytes (zero-initialized on materialization).
  // Unallocated reads return zero. Page storage comes from the arena
  // when one is set, else from owned_ below. Window pages live only in
  // window_ (indexed by page index - window_first_page_; null until
  // materialized), every other page only in pages_.
  addr_t window_first_page_ = 0;
  std::vector<std::uint8_t*> window_;
  std::unordered_map<addr_t, std::uint8_t*> pages_;
  std::vector<std::unique_ptr<std::uint8_t[]>> owned_;
  Arena* arena_ = nullptr;

  // Last-touched-page memo: simulated accesses stream through the same
  // page for long stretches, so this turns the per-access hash lookup
  // into one compare. Safe because a page's byte buffer never moves (the
  // map may rehash, but the page storage is stable) and pages are never
  // freed. Only allocated pages are memoized — a miss on an unallocated
  // page must re-probe, since a later store materializes it. Window
  // pages bypass it.
  mutable addr_t memo_page_ = ~addr_t{0};
  mutable std::uint8_t* memo_data_ = nullptr;
};

}  // namespace issr::mem
