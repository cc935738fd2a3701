// Batched FIFO queue: the companion to the §3 LIFO stack, on the same
// amortized table-doubling analysis — a circular buffer that rebuilds when
// full or sparse.
//
// Batch semantics (documented; mirrors the stack's push-then-pop): all
// ENQUEUEs of a batch append in working-set order, then DEQUEUEs take from
// the front in working-set order.  A dequeue can therefore observe a
// same-batch enqueue only when the pre-batch queue runs dry mid-phase, which
// keeps the phases' parallel loops disjoint.
//
// W(n) = Θ(n) amortized, s(n) = O(lg P): identical to the stack's plug-in
// numbers for Theorem 1.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"
#include "runtime/api.hpp"

namespace batcher::ds {

template <typename T>
class BatchedQueue final : public BatchedStructure {
 public:
  enum class Kind : std::uint8_t { Enqueue, Dequeue };

  struct Op : OpRecordBase {
    Kind kind = Kind::Enqueue;
    T value{};
    std::optional<T> out;  // Dequeue result
  };

  explicit BatchedQueue(rt::Scheduler& sched) : batcher_(sched, *this) {
    table_.resize(kInitialCapacity);
  }

  void enqueue(const T& value) {
    Op op;
    op.kind = Kind::Enqueue;
    op.value = value;
    batcher_.batchify(op);
  }

  std::optional<T> dequeue() {
    Op op;
    op.kind = Kind::Dequeue;
    batcher_.batchify(op);
    return op.out;
  }

  std::size_t size_unsafe() const { return size_; }
  std::size_t capacity_unsafe() const { return table_.size(); }

  Batcher& batcher() { return batcher_; }

  void run_batch(OpRecordBase* const* ops, std::size_t count) override {
    enq_.clear();
    deq_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      auto* op = static_cast<Op*>(ops[i]);
      (op->kind == Kind::Enqueue ? enq_ : deq_).push_back(op);
    }

    // ENQUEUE phase: grow if needed, then write all slots in parallel.
    if (size_ + enq_.size() > table_.size()) grow_to(size_ + enq_.size());
    const std::size_t cap = table_.size();
    rt::parallel_for(0, static_cast<std::int64_t>(enq_.size()),
                     [&](std::int64_t i) {
                       table_[(head_ + size_ + static_cast<std::size_t>(i)) % cap] =
                           enq_[static_cast<std::size_t>(i)]->value;
                     });
    size_ += enq_.size();

    // DEQUEUE phase: the j-th dequeue takes the j-th element from the front.
    const std::size_t pops = std::min(deq_.size(), size_);
    rt::parallel_for(0, static_cast<std::int64_t>(pops), [&](std::int64_t j) {
      deq_[static_cast<std::size_t>(j)]->out =
          table_[(head_ + static_cast<std::size_t>(j)) % cap];
    });
    for (std::size_t j = pops; j < deq_.size(); ++j) {
      deq_[j]->out = std::nullopt;  // underflow
    }
    head_ = (head_ + pops) % cap;
    size_ -= pops;

    if (table_.size() > kInitialCapacity && size_ < table_.size() / 4) {
      rebuild(std::max(kInitialCapacity, table_.size() / 2));
    }
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  void grow_to(std::size_t needed) {
    std::size_t cap = table_.size();
    while (cap < needed) cap *= 2;
    rebuild(cap);
  }

  // Rebuild compacts the circular buffer to start at slot 0 (parallel copy —
  // the Θ(size) batch the amortization pays for).
  void rebuild(std::size_t cap) {
    std::vector<T> fresh(cap);
    const std::size_t old_cap = table_.size();
    rt::parallel_for(0, static_cast<std::int64_t>(size_), [&](std::int64_t i) {
      fresh[static_cast<std::size_t>(i)] =
          std::move(table_[(head_ + static_cast<std::size_t>(i)) % old_cap]);
    });
    table_ = std::move(fresh);
    head_ = 0;
  }

  std::vector<T> table_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::vector<Op*> enq_, deq_;  // batch scratch
  Batcher batcher_;
};

}  // namespace batcher::ds
