// Sparse big-endian byte-addressable memory model (SPARC V8 is big-endian).
//
// Shared by the ISS and the RTL core as the off-chip RAM behind the bus.
// Backed by 4 KiB pages allocated on first touch so a 32-bit address space
// costs only what the workload actually uses.
//
// Pages are copy-on-write: clone() (and the copy constructor) duplicate only
// the page table — O(pages) shared_ptr copies — and a page's bytes are
// copied the first time a store lands on a page that is still shared. That
// turns the campaign engine's per-injection checkpoint_mem_.clone() from a
// full deep copy into a pointer copy, and lets equals() short-circuit pages
// two images still share. Sharing is confined to one clone lineage, which in
// the engine is always owned by a single worker thread; the shared_ptr
// control block makes the (read-only) cross-thread golden image safe too.
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "common/types.hpp"

namespace issrtl {

/// Raised on accesses the memory model cannot satisfy (host-level bug, not a
/// simulated trap — simulated alignment traps are handled by the cores).
class MemoryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Memory {
 public:
  static constexpr u32 kPageBits = 12;
  static constexpr u32 kPageSize = 1u << kPageBits;

  Memory() = default;

  // Copy/move keep the page table but reset the one-entry page caches: a
  // copy shares every page with its source, so the *source's* write cache
  // must drop too — its cached page is no longer uniquely owned and the
  // next store must re-run the COW unshare check. Read caches stay valid
  // on the source (reads never unshare) and are simply dropped on the
  // destination.
  Memory(const Memory& other) : pages_(other.pages_) {
    other.write_page_.store(nullptr, std::memory_order_relaxed);
    other.bump_revision();
  }
  Memory(Memory&& other) noexcept
      : pages_(std::move(other.pages_)),
        cached_index_(other.cached_index_),
        read_page_(other.read_page_),
        write_page_(other.write_page_.load(std::memory_order_relaxed)) {
    other.cached_index_ = kNoPage;
    other.read_page_ = nullptr;
    other.write_page_.store(nullptr, std::memory_order_relaxed);
    other.bump_revision();
  }
  Memory& operator=(const Memory& other) {
    if (this != &other) {
      pages_ = other.pages_;
      cached_index_ = kNoPage;
      read_page_ = nullptr;
      write_page_.store(nullptr, std::memory_order_relaxed);
      other.write_page_.store(nullptr, std::memory_order_relaxed);
      bump_revision();
      other.bump_revision();
    }
    return *this;
  }
  Memory& operator=(Memory&& other) noexcept {
    pages_ = std::move(other.pages_);
    cached_index_ = other.cached_index_;
    read_page_ = other.read_page_;
    write_page_.store(other.write_page_.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
    other.cached_index_ = kNoPage;
    other.read_page_ = nullptr;
    other.write_page_.store(nullptr, std::memory_order_relaxed);
    bump_revision();
    other.bump_revision();
    return *this;
  }

  // Byte accessors. Unwritten memory reads as zero.
  u8 load_u8(u32 addr) const;
  void store_u8(u32 addr, u8 value);

  // Big-endian multi-byte accessors; callers are responsible for alignment
  // (the cores trap on misalignment before reaching the memory model), but
  // page-crossing accesses fall back to byte-wise handling regardless.
  u16 load_u16(u32 addr) const;
  u32 load_u32(u32 addr) const;
  u64 load_u64(u32 addr) const;
  void store_u16(u32 addr, u16 value);
  void store_u32(u32 addr, u32 value);
  void store_u64(u32 addr, u64 value);

  /// Bulk write, e.g. loading a program image.
  void write_block(u32 addr, const void* data, std::size_t size);

  /// Bulk read, e.g. snapshotting a result buffer.
  void read_block(u32 addr, void* out, std::size_t size) const;

  /// Number of pages currently allocated (for tests / stats).
  std::size_t allocated_pages() const noexcept { return pages_.size(); }

  /// Snapshot for golden-vs-faulty end-state comparison and for checkpoint
  /// rungs. O(pages) pointer copies; bytes are duplicated lazily on the
  /// next store to either image.
  ///
  /// COW aliasing rules:
  ///  * a clone and its source share pages until one of them stores to a
  ///    shared page, at which point only that image copies the bytes —
  ///    reads never unshare;
  ///  * sharing is transitive across a clone lineage (a clone of a clone
  ///    shares with both ancestors), which is what lets equals() compare
  ///    untouched pages by pointer no matter how many snapshots deep a
  ///    campaign worker is;
  ///  * mutating an image never affects any clone taken from it earlier —
  ///    a snapshot is immutable history, not a view;
  ///  * concurrent use is safe as long as each *image* stays on one
  ///    thread; additionally, many worker threads may clone() from — and
  ///    equals() against — one shared golden image (e.g. the checkpoint-
  ///    ladder rungs), which is what the engine does. Concurrent load_*
  ///    calls on one shared image are NOT safe (they maintain a one-entry
  ///    page cache); clone first, reads on the clone are free anyway.
  Memory clone() const { return *this; }

  /// True if every allocated byte matches `other` (zero pages are equal to
  /// absent pages, so clones with different page sets still compare equal).
  /// Pages still shared between the two images compare by pointer.
  bool equals(const Memory& other) const;

  // ---- raw page access for the ISS load/store cache -----------------------
  //
  // iss::Emulator keeps a one-entry page cache of raw byte pointers (the
  // "lscache") so the hot load/store path inlines completely. Raw pointers
  // outlive this image's bookkeeping, so every event that can re-share or
  // replace a page — clone()/copy/move (pages become shared) and stores made
  // through the Memory API (COW unshare swaps the page object) — bumps
  // `revision_`; the emulator compares revision() against its captured value
  // once per instruction and drops its cached pointers on mismatch. Stores
  // the emulator itself performs through write_page_base() do NOT bump the
  // revision: the emulator refreshes its own entries from the returned
  // pointer, which is what keeps the fast path's revision check a hit on
  // every instruction of an undisturbed run.

  /// Monotonic counter of pointer-invalidating events (see above).
  u64 revision() const noexcept {
    return revision_.load(std::memory_order_relaxed);
  }

  /// Byte pointer to the start of the page holding `addr`, read-only, or
  /// nullptr when the page was never written (reads as zero). Valid until
  /// revision() changes or this image writes to that page.
  const u8* read_page_base(u32 addr) const noexcept {
    const Page* p = find_page(addr);
    return p != nullptr ? p->data() : nullptr;
  }

  /// Byte pointer to the start of the page holding `addr`, private to this
  /// image: allocated (zeroed) on first touch, un-shared on first write to a
  /// shared page. Valid until revision() changes. The caller owns coherence
  /// of any previously fetched read pointer to the same page (the un-share
  /// may have replaced the page object).
  u8* write_page_base(u32 addr) { return page_for_write(addr).data(); }

 private:
  using Page = std::array<u8, kPageSize>;
  using PageRef = std::shared_ptr<Page>;

  static constexpr u32 kNoPage = ~0u;  // page indices are < 2^20

  /// Slow paths behind the one-entry caches below.
  const Page* find_page_slow(u32 addr) const noexcept;
  Page& page_for_write_slow(u32 addr);

  /// One-entry page cache: memory traffic is heavily page-local (stack,
  /// write-through data region, line fills), and the hash lookup per access
  /// is visible in campaign profiles. `read_page_` stays valid as long as
  /// this image holds its shared_ptr; `write_page_` additionally asserts
  /// unique ownership, which cloning breaks — see the copy constructor.
  const Page* find_page(u32 addr) const noexcept {
    const u32 index = addr >> kPageBits;
    if (index == cached_index_ && read_page_ != nullptr) return read_page_;
    return find_page_slow(addr);
  }

  /// Page backing `addr`, private to this image: allocated (zeroed) on first
  /// touch, and un-shared (bytes copied) on first write to a shared page.
  Page& page_for_write(u32 addr) {
    const u32 index = addr >> kPageBits;
    Page* cached = write_page_.load(std::memory_order_relaxed);
    if (index == cached_index_ && cached != nullptr) return *cached;
    return page_for_write_slow(addr);
  }

  void bump_revision() const noexcept {
    revision_.fetch_add(1, std::memory_order_relaxed);
  }

  std::unordered_map<u32, PageRef> pages_;
  mutable u32 cached_index_ = kNoPage;
  mutable const Page* read_page_ = nullptr;  ///< addr-cache, read side
  /// Same page when uniquely owned; atomic because clone() — legal from
  /// many threads on one shared source, e.g. ladder rungs — must revoke
  /// the source's uniqueness assumption without a data race.
  mutable std::atomic<Page*> write_page_{nullptr};
  /// Pointer-invalidation counter for the ISS lscache (see revision());
  /// atomic for the same reason as write_page_ — concurrent clone() from a
  /// shared golden image must revoke without a data race.
  mutable std::atomic<u64> revision_{0};
};

}  // namespace issrtl
