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
//
// Spare blocks.  The first write to a fresh block faults it in, about 2 ms
// for a 2 MiB huge page.  A BOP that carves into a fresh block takes that
// fault while it holds the batch flag, so every worker waits on it.  An arena
// that opens its second block therefore keeps one spare: a process-wide
// filler thread maps it and faults it in (MADV_POPULATE_WRITE, else one write
// per 4 KiB page), and add_block takes it with one atomic exchange and asks
// for the next.  add_block never waits for the filler; with no spare ready it
// maps a block itself.  An arena that fits in one block never asks, so it
// neither starts the thread nor holds a second block.  The filler starts on
// the first request, sleeps on an empty queue and is joined at exit.
// Destruction hands a pending fill over to the filler, which frees the spare
// when it is done; a move takes the spare along.
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace batcher {

namespace detail {

inline constexpr std::size_t kHugePage = std::size_t{1} << 21;

// Maps `size` + kHugePage bytes and trims both ends so that exactly `size`
// bytes remain, starting on a kHugePage boundary.
inline char* map_block(std::size_t size) {
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

// Faults every page of a fresh block in, writable.
inline void populate(char* base, std::size_t size) {
#ifdef MADV_POPULATE_WRITE
  if (::madvise(base, size, MADV_POPULATE_WRITE) == 0) return;
#endif
  for (std::size_t i = 0; i < size; i += 4096) {
    *static_cast<volatile char*>(base + i) = 0;
  }
}

// One arena's spare block, shared with the filler while a fill is pending.
// `block_` holds a ready block, nullptr (nothing ready: no fill asked for
// yet, or the last one failed), pending() (a fill was asked for and has not
// finished) or orphan() (the arena let go of a pending fill, so the filler
// frees the spare).
class SpareBlock {
 public:
  explicit SpareBlock(std::size_t size) : size_(size) {
    live_.fetch_add(1, std::memory_order_relaxed);
  }

  // The ready block, or nullptr when none is; asks for the next fill unless
  // one is still pending.  Never waits.
  char* take() {
    char* const got = block_.exchange(pending(), std::memory_order_acq_rel);
    if (got == pending()) return nullptr;
    ask();
    return got;
  }

  bool ready() const {
    char* const b = block_.load(std::memory_order_acquire);
    return b != nullptr && b != pending();
  }

  // The arena lets go: frees the spare now, or hands it to a pending fill.
  void abandon() {
    char* const got = block_.exchange(orphan(), std::memory_order_acq_rel);
    if (got == pending()) return;
    if (got != nullptr) ::munmap(got, size_);
    delete this;
  }

  static std::size_t live() { return live_.load(std::memory_order_acquire); }

 private:
  friend class SpareFiller;

  ~SpareBlock() { live_.fetch_sub(1, std::memory_order_release); }

  static char* pending() { return reinterpret_cast<char*>(std::uintptr_t{1}); }
  static char* orphan() { return reinterpret_cast<char*>(std::uintptr_t{2}); }

  void ask();

  // Filler side: maps and populates the block unless the arena already let
  // go, then publishes it, or frees everything if the arena let go meanwhile.
  void fill() {
    char* b = nullptr;
    if (block_.load(std::memory_order_acquire) != orphan()) {
      try {
        b = map_block(size_);
        populate(b, size_);
      } catch (const std::bad_alloc&) {
        b = nullptr;
      }
    }
    if (block_.exchange(b, std::memory_order_acq_rel) == orphan()) {
      if (b != nullptr) ::munmap(b, size_);
      delete this;
    }
  }

  std::atomic<char*> block_{nullptr};
  const std::size_t size_;
  SpareBlock* next_ = nullptr;  // the filler's queue

  static inline std::atomic<std::size_t> live_{0};
};

// The process-wide filler: a lock-free stack of requests and one thread that
// drains it, asleep while it is empty.  At exit it serves every request
// already made, then stops and is joined.
class SpareFiller {
 public:
  static SpareFiller& instance() {
    static SpareFiller filler;
    return filler;
  }

  SpareFiller(const SpareFiller&) = delete;
  SpareFiller& operator=(const SpareFiller&) = delete;

  ~SpareFiller() {
    if (!thread_.joinable()) return;
    stopping_.store(true);
    wake();
    thread_.join();
  }

  void push(SpareBlock* s) {
    if (!thread_.joinable()) {  // no thread: nothing will be ready, say so
      s->block_.store(nullptr, std::memory_order_release);
      return;
    }
    SpareBlock* head = queue_.load(std::memory_order_relaxed);
    do {
      s->next_ = head;
    } while (!queue_.compare_exchange_weak(head, s, std::memory_order_release,
                                           std::memory_order_relaxed));
    wake();
  }

 private:
  SpareFiller() {
    try {
      thread_ = std::thread([this] { run(); });
    } catch (const std::system_error&) {
      // No filler: every arena maps its own blocks, as without spares.
    }
  }

  // A request or the stop bumps `wakeups_` after publishing itself, so a
  // filler that found the stack empty and then waits on the count it read
  // before looking cannot sleep through it.
  void wake() {
    wakeups_.fetch_add(1);
    wakeups_.notify_one();
  }

  void run() {
    for (;;) {
      const std::uint32_t seen = wakeups_.load();
      SpareBlock* s = queue_.exchange(nullptr, std::memory_order_acquire);
      if (s == nullptr) {
        if (stopping_.load()) return;
        wakeups_.wait(seen);
        continue;
      }
      while (s != nullptr) {
        SpareBlock* const next = s->next_;  // fill() may free or requeue s
        s->fill();
        s = next;
      }
    }
  }

  std::atomic<SpareBlock*> queue_{nullptr};
  std::atomic<std::uint32_t> wakeups_{0};
  std::atomic<bool> stopping_{false};
  std::thread thread_;  // last: it runs on the members above
};

inline void SpareBlock::ask() { SpareFiller::instance().push(this); }

}  // namespace detail

class Arena {
 public:
  static constexpr std::size_t kHugePage = detail::kHugePage;

  // `block_size` is rounded up to a multiple of kHugePage.
  explicit Arena(std::size_t block_size = kHugePage)
      : block_size_(round_up(block_size)) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  Arena(Arena&& o) noexcept
      : block_size_(o.block_size_),
        blocks_(std::move(o.blocks_)),
        used_(o.used_),
        cap_(o.cap_),
        spare_(std::exchange(o.spare_, nullptr)) {
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
      spare_ = std::exchange(o.spare_, nullptr);
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

  // For tests.  Whether this arena keeps a spare at all (it has opened a
  // second block), and whether a filled one is waiting.
  bool has_spare() const { return spare_ != nullptr; }
  bool spare_ready() const { return spare_ != nullptr && spare_->ready(); }
  // Spares alive process-wide, held by an arena or freed by the filler soon.
  static std::size_t spares_live() { return detail::SpareBlock::live(); }

 private:
  struct Block {
    char* base;
    std::size_t size;
  };

  // Out of line, so the bump path inlined into callers stays small.
  [[gnu::noinline]] void add_block(std::size_t min_bytes) {
    const bool fits = min_bytes <= block_size_;
    const std::size_t size = fits ? block_size_ : round_up(min_bytes);
    char* base = nullptr;
    if (fits && !blocks_.empty()) {  // from the second block on
      if (spare_ == nullptr) spare_ = new detail::SpareBlock(block_size_);
      base = spare_->take();
    }
    if (base == nullptr) base = detail::map_block(size);
    blocks_.push_back(Block{base, size});
    used_ = 0;
    cap_ = size;
  }

  static std::size_t round_up(std::size_t bytes) {
    const std::size_t pages = (bytes + kHugePage - 1) / kHugePage;
    return (pages > 0 ? pages : 1) * kHugePage;
  }

  void release() {
    for (const Block& b : blocks_) ::munmap(b.base, b.size);
    blocks_.clear();
    used_ = cap_ = 0;
    if (spare_ != nullptr) std::exchange(spare_, nullptr)->abandon();
  }

  std::size_t block_size_;
  std::vector<Block> blocks_;
  std::size_t used_ = 0;
  std::size_t cap_ = 0;
  detail::SpareBlock* spare_ = nullptr;
};

}  // namespace batcher
