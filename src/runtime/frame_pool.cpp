#include "runtime/frame_pool.hpp"

#include <new>

#include "runtime/schedule_hooks.hpp"

namespace batcher::rt {

namespace {

// Allocation-failure injection point, shared by the two paths that touch the
// global allocator (slab refill and the pool-less/oversized fallback).  The
// chaos engine arms `test_faults().throw_bad_alloc` to prove a real
// std::bad_alloc from the Nth allocation rides the task-frame exception
// machinery like any other task failure.  Compiles away without BATCHER_AUDIT.
inline void maybe_inject_bad_alloc() {
#if BATCHER_AUDIT
  if (hooks::fire(hooks::test_faults().throw_bad_alloc)) [[unlikely]] {
    throw std::bad_alloc{};
  }
#endif
}

}  // namespace

FramePool::~FramePool() {
  // Runs after the owning thread's last use (the Scheduler joins its threads
  // before destroying workers), so any counts still batched are published
  // here — destructor-time snapshots are exact.
  flush_stats();
  // Free lists (local and remote) are views into the slabs; nothing to walk.
  for (char* slab : slabs_) ::operator delete(slab);
}

void FramePool::drain_remote() {
  FreeNode* node = remote_head_.exchange(nullptr, std::memory_order_acquire);
  while (node != nullptr) {
    FreeNode* next = node->next;
    FrameHeader* hdr = header_of(node);
    const std::uint32_t c = hdr->size_class & ~kFreedBit;
    BATCHER_DASSERT(c < static_cast<std::uint32_t>(kNumClasses),
                    "remote-freed frame has a corrupt size class");
    node->next = local_[c];
    local_[c] = node;
    node = next;
  }
}

FramePool::FreeNode* FramePool::allocate_slow(int c) {
  drain_remote();
  if (local_[c] != nullptr) return local_[c];
  return refill(c);
}

FramePool::FreeNode* FramePool::refill(int c) {
  const std::size_t block = kClassSizes[c];
  const std::size_t count = kSlabBytes / block;
  maybe_inject_bad_alloc();
  char* slab = static_cast<char*>(::operator new(kSlabBytes));
  slabs_.push_back(slab);
  FreeNode* head = local_[c];
  for (std::size_t i = 0; i < count; ++i) {
    char* base = slab + i * block;
    ::new (base) FrameHeader{this, static_cast<std::uint32_t>(c) | kFreedBit,
                             0};
    head = ::new (base + sizeof(FrameHeader)) FreeNode{head};
  }
  local_[c] = head;
  stats_->slab_refills.bump();
  hooks::emit({hooks::EventId::kFrameSlabRefill, owner_id_, TaskKind::Core,
               TaskKind::Core, nullptr, static_cast<std::uint64_t>(c)});
  return head;
}

void* FramePool::global_allocate(std::size_t bytes, std::size_t align) {
  maybe_inject_bad_alloc();
  if (align <= kFrameAlign) {
    char* raw = static_cast<char*>(::operator new(sizeof(FrameHeader) + bytes));
    ::new (raw) FrameHeader{nullptr, 0,
                            static_cast<std::uint32_t>(sizeof(FrameHeader))};
    return raw + sizeof(FrameHeader);
  }
  // Over-aligned closure: pad so the payload lands on an `align` boundary
  // with its header immediately below; `offset` recovers the raw pointer.
  const std::size_t total = sizeof(FrameHeader) + align + bytes;
  char* raw = static_cast<char*>(::operator new(total));
  const std::uintptr_t payload_addr =
      (reinterpret_cast<std::uintptr_t>(raw) + sizeof(FrameHeader) + align -
       1) &
      ~(static_cast<std::uintptr_t>(align) - 1);
  char* payload = reinterpret_cast<char*>(payload_addr);
  ::new (payload - sizeof(FrameHeader)) FrameHeader{
      nullptr, 0, static_cast<std::uint32_t>(payload - raw)};
  return payload;
}

}  // namespace batcher::rt
