// Per-worker task-frame pools: the allocator-free spawn hot path.
//
// Every spawn used to heap-allocate its ClosureTask with global `new`, and
// the frame was freed by whichever worker ran it — so every successful steal
// became a cross-thread `delete`, serializing the hot path on the global
// allocator exactly where the paper's Theorem 1 charges (T1 + W(n))/P to
// useful work.  Instead, each Worker owns a FramePool:
//
//  * fixed power-of-two size classes carved out of slab allocations, so a
//    steady-state frame allocation is a pop from an owner-local free list —
//    no atomics, no lock, no global allocator;
//  * a free by the owning worker pushes straight back onto that local list;
//  * a free by any other thread (a thief finishing a stolen frame) pushes
//    onto the owner's MPSC remote-free stack — a Treiber stack whose pushers
//    CAS with release and whose owner drains with one acquire exchange when
//    a local list runs empty — instead of calling global `delete`;
//  * oversized or over-aligned frames, and frames made by threads with no
//    pool (the scheduler root is made by the run() caller), fall back to
//    global new/delete through the same 16-byte header, so release_frame
//    needs no out-of-band knowledge of how a frame was allocated.
//
// Slabs are freed only in the pool's destructor; a frame sitting on a free
// list (local or remote) at that point is slab memory like any other, so
// teardown never walks a list.  Workers outlive every frame they ever
// allocated — runs are structured and the Scheduler joins its threads before
// destroying workers — which is what makes that safe.
//
// DESIGN.md §10 spells out the protocol and why it preserves Invariant 3 and
// the §8 failure semantics (a frame that dies via fail_and_release returns to
// the pool exactly once, through the same release_frame it would have taken
// on the success path).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "runtime/schedule_hooks.hpp"
#include "runtime/stats.hpp"
#include "support/config.hpp"

namespace batcher::rt {

class FramePool {
 public:
  // Blocks are carved at multiples of the class size from a 16-byte-aligned
  // slab, so payloads (block + 16-byte header) hold any std::max_align_t
  // alignment.  Stricter alignments take the global fallback.
  static constexpr std::size_t kFrameAlign = alignof(std::max_align_t);

  // Block sizes, header included.  Closures in this codebase capture a few
  // pointers/references, so 64-byte blocks (48-byte payloads) cover most
  // spawns; the 1 KiB ceiling covers any parallel_invoke arm worth spawning.
  // Larger frames fall back to the global allocator and are not counted.
  static constexpr int kNumClasses = 5;
  static constexpr std::size_t kClassSizes[kNumClasses] = {64, 128, 256, 512,
                                                           1024};
  static constexpr std::size_t kSlabBytes = std::size_t{1} << 15;  // 32 KiB

  FramePool(WorkerStats* stats, unsigned owner_id)
      : stats_(stats), owner_id_(owner_id) {}
  ~FramePool();

  FramePool(const FramePool&) = delete;
  FramePool& operator=(const FramePool&) = delete;

  // Thread-local current pool: the calling worker's own pool, set around
  // Worker::main_loop; null on non-worker threads.  This is the fast-path
  // dispatch for both allocate (use my pool) and free (mine vs. remote).
  static FramePool* tls() { return t_pool; }
  static void set_tls(FramePool* pool) { t_pool = pool; }

  // Allocates a frame payload of `bytes` from the calling thread's pool;
  // falls back to the global allocator when the thread has no pool or the
  // frame is oversized/over-aligned.  Returned memory is uninitialized.
  static void* allocate_frame(std::size_t bytes, std::size_t align) {
    if (align <= kFrameAlign) [[likely]] {
      FramePool* pool = tls();
      if (pool != nullptr) [[likely]] return pool->allocate(bytes);
    }
    return global_allocate(bytes, align);
  }

  // Returns a payload obtained from allocate_frame.  Any thread; the header
  // routes to the owner's local list, its remote-free stack, or global
  // delete.  The payload's object must already have been destroyed.
  static void release_frame(void* payload) {
    FrameHeader* hdr = header_of(payload);
    FramePool* owner = hdr->owner;
    if (owner == nullptr) [[unlikely]] {
      ::operator delete(static_cast<char*>(payload) - hdr->offset);
      return;
    }
    if (owner == tls()) {
      owner->local_free(hdr, payload);
    } else {
      owner->remote_free(hdr, payload);
    }
  }

  // Owner only.  Moves every frame in the remote-free stack onto the local
  // free lists.  Called automatically when a local list runs empty.
  void drain_remote();

  // Publishes the batched fast-path counts (allocations and local frees)
  // into the shared stats block.  The fast paths bump plain owner-private
  // fields — an atomic RMW per frame would roughly double the cost of a
  // steady-state allocate — and workers flush when they park, so snapshots
  // taken at run boundaries after all workers parked (and destructor-time
  // snapshots, which happen after thread join) are exact.  Remote frees are
  // counted eagerly: they are cross-thread by definition and rare enough
  // that their two relaxed fetch_adds don't matter.
  // Owner only (or any point ordered after the owner's last use, such as
  // after the owning thread has been joined).
  void flush_stats() {
    if (pending_allocated_ != 0) {
      stats_->frames_allocated.bump(pending_allocated_);
      pending_allocated_ = 0;
    }
    if (pending_freed_ != 0) {
      stats_->frames_freed.bump(pending_freed_);
      pending_freed_ = 0;
    }
  }

  unsigned owner_id() const { return owner_id_; }

  // Observability / tests: slabs ever carved (monotonic, one global
  // allocation each) and whether the remote stack is currently non-empty
  // (approximate — for tests at quiescent points only).
  std::size_t slab_count() const { return slabs_.size(); }
  bool has_remote_frees() const {
    return remote_head_.load(std::memory_order_acquire) != nullptr;
  }

 private:
  // Precedes every payload.  `owner == nullptr` marks a global-allocator
  // frame freed via `payload - offset`; otherwise `size_class` indexes
  // kClassSizes (kFreedBit set while the frame sits on a free list, which
  // turns a double release into a debug assertion instead of list
  // corruption; the bit is maintained in every build so TUs with different
  // NDEBUG settings agree on the header protocol).
  struct FrameHeader {
    FramePool* owner;
    std::uint32_t size_class;
    std::uint32_t offset;
  };
  static_assert(sizeof(FrameHeader) == 16, "headers keep payloads aligned");
  static_assert(alignof(FrameHeader) <= kFrameAlign,
                "header placement relies on max_align_t slabs");

  // Free-list link, living in the (dead) payload bytes of a freed frame.
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr std::uint32_t kFreedBit = 0x80000000u;

  static FrameHeader* header_of(void* payload) {
    return reinterpret_cast<FrameHeader*>(static_cast<char*>(payload) -
                                          sizeof(FrameHeader));
  }

  static int class_for(std::size_t bytes) {
    const std::size_t block = bytes + sizeof(FrameHeader);
    for (int c = 0; c < kNumClasses; ++c) {
      if (block <= kClassSizes[c]) return c;
    }
    return -1;
  }

  // Owner only: the steady-state allocation fast path.
  void* allocate(std::size_t bytes) {
    const int c = class_for(bytes);
    if (c < 0) [[unlikely]] return global_allocate(bytes, kFrameAlign);
    FreeNode* node = local_[c];
    if (node == nullptr) [[unlikely]] node = allocate_slow(c);
    local_[c] = node->next;
    FrameHeader* hdr = header_of(node);
    BATCHER_DASSERT((hdr->size_class & kFreedBit) != 0,
                    "pool frame handed out while not on a free list");
    // The bit is maintained in every build (only the asserts are
    // debug-gated): allocate/free are inline but refill lives in the
    // library, so a consumer TU compiled with a different NDEBUG setting
    // must still agree with the library on the header protocol.
    hdr->size_class = static_cast<std::uint32_t>(c);
    ++pending_allocated_;
    return node;
  }

  void local_free(FrameHeader* hdr, void* payload) {
    const std::uint32_t c = hdr->size_class & ~kFreedBit;
    BATCHER_DASSERT((hdr->size_class & kFreedBit) == 0,
                    "pool frame freed twice");
    hdr->size_class = c | kFreedBit;
    FreeNode* node = ::new (payload) FreeNode{local_[c]};
    local_[c] = node;
    ++pending_freed_;
  }

  // Any thread.  The release CAS publishes the node's `next` (and the freed
  // header) to the owner's acquire drain; intermediate pushes extend the
  // release sequence, so one acquire exchange covers the whole chain.
  void remote_free(FrameHeader* hdr, void* payload) {
    const std::uint32_t c = hdr->size_class & ~kFreedBit;
    BATCHER_DASSERT((hdr->size_class & kFreedBit) == 0,
                    "pool frame freed twice");
    hdr->size_class = c | kFreedBit;
    FreeNode* node = ::new (payload) FreeNode{nullptr};
    FreeNode* head = remote_head_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!remote_head_.compare_exchange_weak(head, node,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed));
    stats_->remote_frees.bump();
    stats_->frames_freed.bump();
    // `c` was read before the push: once published, the owner may drain and
    // reuse the frame, so the header is off limits here.
    FramePool* mine = tls();
    hooks::emit({hooks::EventId::kFrameRemoteFree,
                 mine != nullptr ? mine->owner_id_ : hooks::kNoWorker,
                 TaskKind::Core, TaskKind::Core, nullptr,
                 static_cast<std::uint64_t>(c)});
  }

  FreeNode* allocate_slow(int c);  // drain remote, else carve a new slab
  FreeNode* refill(int c);
  static void* global_allocate(std::size_t bytes, std::size_t align);

  inline static thread_local FramePool* t_pool = nullptr;

  WorkerStats* const stats_;
  const unsigned owner_id_;
  FreeNode* local_[kNumClasses] = {};
  // Batched stat bumps, owner-private until flush_stats() publishes them.
  std::uint64_t pending_allocated_ = 0;
  std::uint64_t pending_freed_ = 0;
  std::vector<char*> slabs_;
  // Own line: thieves CAS here while the owner works the fields above.
  alignas(kCacheLineSize) std::atomic<FreeNode*> remote_head_{nullptr};
};

}  // namespace batcher::rt
