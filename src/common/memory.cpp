#include "common/memory.hpp"

#include <algorithm>

namespace issrtl {

const Memory::Page* Memory::find_page_slow(u32 addr) const noexcept {
  const u32 index = addr >> kPageBits;
  const auto it = pages_.find(index);
  if (it == pages_.end()) return nullptr;  // absence is never cached
  cached_index_ = index;
  read_page_ = it->second.get();
  write_page_.store(nullptr, std::memory_order_relaxed);  // unknown unique
  return read_page_;
}

Memory::Page& Memory::page_for_write_slow(u32 addr) {
  const u32 index = addr >> kPageBits;
  auto [it, inserted] = pages_.try_emplace(index);
  if (inserted) {
    it->second = std::make_shared<Page>();  // value-initialised: zeroed
  } else if (it->second.use_count() > 1) {
    it->second = std::make_shared<Page>(*it->second);  // un-share on write
  }
  cached_index_ = index;
  read_page_ = it->second.get();
  write_page_.store(it->second.get(), std::memory_order_relaxed);
  return *it->second;
}

u8 Memory::load_u8(u32 addr) const {
  const Page* page = find_page(addr);
  return page ? (*page)[addr & (kPageSize - 1)] : 0;
}

void Memory::store_u8(u32 addr, u8 value) {
  bump_revision();  // API-path store: revoke ISS lscache pointers
  page_for_write(addr)[addr & (kPageSize - 1)] = value;
}

u16 Memory::load_u16(u32 addr) const {
  const u32 off = addr & (kPageSize - 1);
  if (off + 2 <= kPageSize) {
    const Page* page = find_page(addr);
    if (page == nullptr) return 0;
    const u8* b = page->data() + off;
    return static_cast<u16>((b[0] << 8) | b[1]);
  }
  return static_cast<u16>((load_u8(addr) << 8) | load_u8(addr + 1));
}

u32 Memory::load_u32(u32 addr) const {
  const u32 off = addr & (kPageSize - 1);
  if (off + 4 <= kPageSize) {
    const Page* page = find_page(addr);
    if (page == nullptr) return 0;
    const u8* b = page->data() + off;
    return (static_cast<u32>(b[0]) << 24) | (static_cast<u32>(b[1]) << 16) |
           (static_cast<u32>(b[2]) << 8) | static_cast<u32>(b[3]);
  }
  return (static_cast<u32>(load_u8(addr)) << 24) |
         (static_cast<u32>(load_u8(addr + 1)) << 16) |
         (static_cast<u32>(load_u8(addr + 2)) << 8) |
         static_cast<u32>(load_u8(addr + 3));
}

u64 Memory::load_u64(u32 addr) const {
  return (static_cast<u64>(load_u32(addr)) << 32) | load_u32(addr + 4);
}

void Memory::store_u16(u32 addr, u16 value) {
  bump_revision();
  const u32 off = addr & (kPageSize - 1);
  if (off + 2 <= kPageSize) {
    u8* b = page_for_write(addr).data() + off;
    b[0] = static_cast<u8>(value >> 8);
    b[1] = static_cast<u8>(value);
    return;
  }
  store_u8(addr, static_cast<u8>(value >> 8));
  store_u8(addr + 1, static_cast<u8>(value));
}

void Memory::store_u32(u32 addr, u32 value) {
  bump_revision();
  const u32 off = addr & (kPageSize - 1);
  if (off + 4 <= kPageSize) {
    u8* b = page_for_write(addr).data() + off;
    b[0] = static_cast<u8>(value >> 24);
    b[1] = static_cast<u8>(value >> 16);
    b[2] = static_cast<u8>(value >> 8);
    b[3] = static_cast<u8>(value);
    return;
  }
  store_u8(addr, static_cast<u8>(value >> 24));
  store_u8(addr + 1, static_cast<u8>(value >> 16));
  store_u8(addr + 2, static_cast<u8>(value >> 8));
  store_u8(addr + 3, static_cast<u8>(value));
}

void Memory::store_u64(u32 addr, u64 value) {
  store_u32(addr, static_cast<u32>(value >> 32));
  store_u32(addr + 4, static_cast<u32>(value));
}

void Memory::write_block(u32 addr, const void* data, std::size_t size) {
  bump_revision();
  const u8* bytes = static_cast<const u8*>(data);
  while (size > 0) {
    const u32 off = addr & (kPageSize - 1);
    const std::size_t chunk = std::min<std::size_t>(size, kPageSize - off);
    std::memcpy(page_for_write(addr).data() + off, bytes, chunk);
    addr += static_cast<u32>(chunk);
    bytes += chunk;
    size -= chunk;
  }
}

void Memory::read_block(u32 addr, void* out, std::size_t size) const {
  u8* bytes = static_cast<u8*>(out);
  while (size > 0) {
    const u32 off = addr & (kPageSize - 1);
    const std::size_t chunk = std::min<std::size_t>(size, kPageSize - off);
    const Page* page = find_page(addr);
    if (page != nullptr) {
      std::memcpy(bytes, page->data() + off, chunk);
    } else {
      std::memset(bytes, 0, chunk);
    }
    addr += static_cast<u32>(chunk);
    bytes += chunk;
    size -= chunk;
  }
}

namespace {
bool page_is_zero(const std::array<u8, Memory::kPageSize>& page) {
  return std::all_of(page.begin(), page.end(), [](u8 b) { return b == 0; });
}
}  // namespace

bool Memory::equals(const Memory& other) const {
  for (const auto& [idx, page] : pages_) {
    const auto it = other.pages_.find(idx);
    if (it == other.pages_.end()) {
      if (!page_is_zero(*page)) return false;
    } else if (page != it->second && *page != *it->second) {
      return false;
    }
  }
  for (const auto& [idx, page] : other.pages_) {
    if (!pages_.contains(idx) && !page_is_zero(*page)) return false;
  }
  return true;
}

}  // namespace issrtl
