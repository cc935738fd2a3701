// Bump-pointer arena for node-based structures.
//
// Batched data structures run one batch at a time (Invariant 1), so they need
// no concurrent allocator and no safe-memory-reclamation scheme: nodes are
// bump-allocated and freed wholesale when the arena is reset or destroyed.
//
// Blocks are 2 MiB-aligned multiples of 2 MiB, mapped straight from the OS
// and advised for transparent huge pages.  A batched search descends through
// nodes scattered over the whole structure, so with 4 KiB pages a
// 100 MB-scale list misses the TLB on nearly every step; one 2 MiB TLB entry
// covers 512 of those pages.  Where THP is disabled the blocks are ordinary
// pages and nothing else changes.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace batcher {

class Arena {
 public:
  static constexpr std::size_t kHugePage = std::size_t{1} << 21;

  // `block_size` is rounded up to a multiple of kHugePage.
  explicit Arena(std::size_t block_size = kHugePage)
      : block_size_(round_up(block_size)) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  Arena(Arena&& o) noexcept
      : block_size_(o.block_size_),
        blocks_(std::move(o.blocks_)),
        used_(o.used_),
        cap_(o.cap_) {
    o.blocks_.clear();
    o.used_ = o.cap_ = 0;
  }
  Arena& operator=(Arena&& o) noexcept {
    if (this != &o) {
      release();
      block_size_ = o.block_size_;
      blocks_ = std::move(o.blocks_);
      used_ = o.used_;
      cap_ = o.cap_;
      o.blocks_.clear();
      o.used_ = o.cap_ = 0;
    }
    return *this;
  }

  ~Arena() { release(); }

  // Raw allocation, 16-byte aligned and contiguous.  Objects are NOT
  // destructed by the arena; only use for trivially-destructible node types.
  void* allocate(std::size_t bytes) {
    const std::size_t aligned = (bytes + 15) & ~std::size_t{15};
    if (used_ + aligned > cap_) [[unlikely]] add_block(aligned);
    void* mem = blocks_.back().base + used_;
    used_ += aligned;
    return mem;
  }

  template <typename T, typename... Args>
  T* create(Args&&... args) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return ::new (allocate(sizeof(T))) T{std::forward<Args>(args)...};
  }

 private:
  struct Block {
    char* base;
    std::size_t size;
  };

  // Out of line, so the bump path inlined into callers stays small.
  [[gnu::noinline]] void add_block(std::size_t min_bytes) {
    const std::size_t size =
        min_bytes > block_size_ ? round_up(min_bytes) : block_size_;
    blocks_.push_back(Block{map_block(size), size});
    used_ = 0;
    cap_ = size;
  }

  static std::size_t round_up(std::size_t bytes) {
    const std::size_t pages = (bytes + kHugePage - 1) / kHugePage;
    return (pages > 0 ? pages : 1) * kHugePage;
  }

  // Maps `size` + kHugePage bytes and trims both ends so that exactly `size`
  // bytes remain, starting on a kHugePage boundary.
  static char* map_block(std::size_t size) {
    const std::size_t span = size + kHugePage;
    void* raw = ::mmap(nullptr, span, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    char* const first = static_cast<char*>(raw);
    char* const base = reinterpret_cast<char*>(
        (reinterpret_cast<std::uintptr_t>(first) + kHugePage - 1) &
        ~(kHugePage - 1));
    const std::size_t head = static_cast<std::size_t>(base - first);
    if (head > 0) ::munmap(first, head);
    ::munmap(base + size, span - head - size);
#ifdef MADV_HUGEPAGE
    ::madvise(base, size, MADV_HUGEPAGE);
#endif
    return base;
  }

  void release() {
    for (const Block& b : blocks_) ::munmap(b.base, b.size);
    blocks_.clear();
    used_ = cap_ = 0;
  }

  std::size_t block_size_;
  std::vector<Block> blocks_;
  std::size_t used_ = 0;
  std::size_t cap_ = 0;
};

}  // namespace batcher
