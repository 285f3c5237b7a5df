#include "mem/backing_store.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace issr::mem {

BackingStore::BackingStore(addr_t window_base, std::uint64_t window_bytes)
    : window_first_page_(window_base / kPageBytes),
      window_(window_bytes / kPageBytes, nullptr) {
  assert(window_base % kPageBytes == 0 && window_bytes % kPageBytes == 0);
}

std::size_t BackingStore::allocated_pages() const {
  return pages_.size() + static_cast<std::size_t>(std::count_if(
                             window_.begin(), window_.end(),
                             [](const std::uint8_t* p) { return p; }));
}

// Window lookups compare the page index against the window with one
// unsigned subtraction: pages below the window wrap to huge offsets.

std::uint8_t* BackingStore::find_page(addr_t idx) const {
  const addr_t rel = idx - window_first_page_;
  if (rel < window_.size()) return window_[rel];
  const auto it = pages_.find(idx);
  return it == pages_.end() ? nullptr : it->second;
}

const std::uint8_t* BackingStore::page_for_read(addr_t addr) const {
  const addr_t idx = addr / kPageBytes;
  if (idx == memo_page_) return memo_data_;
  const addr_t rel = idx - window_first_page_;
  if (rel < window_.size()) return window_[rel];
  const auto it = pages_.find(idx);
  if (it == pages_.end()) return nullptr;  // absent pages are not memoized
  memo_page_ = idx;
  memo_data_ = it->second;
  return it->second;
}

std::uint8_t* BackingStore::allocate_page() {
  std::uint8_t* page;
  if (arena_ != nullptr) {
    page = arena_->allocate_array<std::uint8_t>(kPageBytes);
  } else {
    owned_.push_back(std::make_unique<std::uint8_t[]>(kPageBytes));
    page = owned_.back().get();
  }
  std::memset(page, 0, kPageBytes);
  return page;
}

std::uint64_t BackingStore::load_u64_memo_miss(addr_t addr,
                                               PageMemo& memo) const {
  const std::size_t off = addr % kPageBytes;
  if (off + 8 > kPageBytes) return load(addr, 8);  // page-straddling
  std::uint8_t* page = find_page(addr / kPageBytes);
  if (page == nullptr) return 0;  // absent pages are not memoized
  memo.page = addr / kPageBytes;
  memo.data = page;
  std::uint64_t v;
  std::memcpy(&v, page + off, 8);
  return v;
}

void BackingStore::store_u64_memo_miss(addr_t addr, std::uint64_t v,
                                       PageMemo& memo) {
  const std::size_t off = addr % kPageBytes;
  if (off + 8 > kPageBytes) {
    store(addr, v, 8);
    return;
  }
  std::uint8_t* page = page_for_write(addr);
  memo.page = addr / kPageBytes;
  memo.data = page;
  std::memcpy(page + off, &v, 8);
}

std::uint8_t* BackingStore::page_for_write(addr_t addr) {
  const addr_t idx = addr / kPageBytes;
  if (idx == memo_page_) return memo_data_;
  const addr_t rel = idx - window_first_page_;
  if (rel < window_.size()) {
    std::uint8_t*& page = window_[rel];
    if (page == nullptr) page = allocate_page();
    return page;
  }
  auto& page = pages_[idx];
  if (page == nullptr) page = allocate_page();
  memo_page_ = idx;
  memo_data_ = page;
  return page;
}

// The fast paths memcpy whole accesses within one page, which (like the
// raw-byte DMA/staging block copies below) assumes a little-endian host;
// the byte loops handle the rare page-straddling access.

std::uint64_t BackingStore::load(addr_t addr, unsigned bytes) const {
  assert(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8);
  const std::size_t off = addr % kPageBytes;
  if (off + bytes <= kPageBytes) {
    const std::uint8_t* page = page_for_read(addr);
    if (page == nullptr) return 0;
    std::uint64_t v = 0;
    std::memcpy(&v, page + off, bytes);
    return v;
  }
  std::uint64_t v = 0;
  for (unsigned i = 0; i < bytes; ++i) {
    const addr_t a = addr + i;
    const std::uint8_t* page = page_for_read(a);
    const std::uint8_t byte = page ? page[a % kPageBytes] : 0;
    v |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return v;
}

void BackingStore::store(addr_t addr, std::uint64_t v, unsigned bytes) {
  assert(bytes == 1 || bytes == 2 || bytes == 4 || bytes == 8);
  const std::size_t off = addr % kPageBytes;
  if (off + bytes <= kPageBytes) {
    std::memcpy(page_for_write(addr) + off, &v, bytes);
    return;
  }
  for (unsigned i = 0; i < bytes; ++i) {
    const addr_t a = addr + i;
    page_for_write(a)[a % kPageBytes] =
        static_cast<std::uint8_t>((v >> (8 * i)) & 0xffu);
  }
}

std::uint8_t BackingStore::load_u8(addr_t addr) const {
  return static_cast<std::uint8_t>(load(addr, 1));
}
std::uint16_t BackingStore::load_u16(addr_t addr) const {
  return static_cast<std::uint16_t>(load(addr, 2));
}
std::uint32_t BackingStore::load_u32(addr_t addr) const {
  return static_cast<std::uint32_t>(load(addr, 4));
}
std::uint64_t BackingStore::load_u64(addr_t addr) const {
  return load(addr, 8);
}
double BackingStore::load_f64(addr_t addr) const {
  const std::uint64_t raw = load_u64(addr);
  double d;
  std::memcpy(&d, &raw, sizeof d);
  return d;
}

void BackingStore::store_u8(addr_t addr, std::uint8_t v) { store(addr, v, 1); }
void BackingStore::store_u16(addr_t addr, std::uint16_t v) {
  store(addr, v, 2);
}
void BackingStore::store_u32(addr_t addr, std::uint32_t v) {
  store(addr, v, 4);
}
void BackingStore::store_u64(addr_t addr, std::uint64_t v) {
  store(addr, v, 8);
}
void BackingStore::store_f64(addr_t addr, double v) {
  std::uint64_t raw;
  std::memcpy(&raw, &v, sizeof raw);
  store_u64(addr, raw);
}

void BackingStore::write_block(addr_t addr, const void* src,
                               std::size_t bytes) {
  const auto* p = static_cast<const std::uint8_t*>(src);
  std::size_t done = 0;
  while (done < bytes) {
    const addr_t a = addr + done;
    const std::size_t in_page = kPageBytes - (a % kPageBytes);
    const std::size_t chunk = std::min(in_page, bytes - done);
    std::memcpy(page_for_write(a) + (a % kPageBytes), p + done, chunk);
    done += chunk;
  }
}

void BackingStore::read_block(addr_t addr, void* dst,
                              std::size_t bytes) const {
  auto* p = static_cast<std::uint8_t*>(dst);
  std::size_t done = 0;
  while (done < bytes) {
    const addr_t a = addr + done;
    const std::size_t in_page = kPageBytes - (a % kPageBytes);
    const std::size_t chunk = std::min(in_page, bytes - done);
    const std::uint8_t* page = page_for_read(a);
    if (page) {
      std::memcpy(p + done, page + (a % kPageBytes), chunk);
    } else {
      std::memset(p + done, 0, chunk);
    }
    done += chunk;
  }
}

void BackingStore::write_doubles(addr_t addr, const double* src,
                                 std::size_t count) {
  write_block(addr, src, count * sizeof(double));
}

void BackingStore::read_doubles(addr_t addr, double* dst,
                                std::size_t count) const {
  read_block(addr, dst, count * sizeof(double));
}

void BackingStore::write_u32s(addr_t addr, const std::uint32_t* src,
                              std::size_t count) {
  write_block(addr, src, count * sizeof(std::uint32_t));
}

}  // namespace issr::mem
