// The paper's amortized LIFO stack (§3): a table-doubling array supporting
// batched PUSH and POP.
//
// Batch semantics follow the paper: each batch runs a PUSH phase followed by
// a POP phase.  Pushes land in working-set order; pop j (in working-set
// order) then removes the j-th element from the new top.  Pops beyond the
// bottom return nothing.
//
// Amortized analysis (§3): a size-x batch costs Θ(x) amortized work — a
// doubling/halving batch costs Θ(current size) but is paid for by the Θ(n)
// cheap slots that preceded it — and every batch dag with w_A work has span
// O(lg w_A), so s(n) = O(lg P) for batches with parallelism O(P).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"
#include "runtime/api.hpp"
#include "support/config.hpp"

namespace batcher::ds {

template <typename T>
class BatchedStack final : public BatchedStructure {
 public:
  enum class Kind : std::uint8_t { Push, Pop };

  struct Op : OpRecordBase {
    Kind kind = Kind::Push;
    T value{};               // argument for Push
    std::optional<T> out;    // result for Pop
  };

  explicit BatchedStack(rt::Scheduler& sched) : batcher_(sched, *this) {
    table_.resize(kInitialCapacity);
  }

  void push(const T& value) {
    Op op;
    op.kind = Kind::Push;
    op.value = value;
    batcher_.batchify(op);
  }

  std::optional<T> pop() {
    Op op;
    op.kind = Kind::Pop;
    batcher_.batchify(op);
    return op.out;
  }

  // Unsynchronized accessors for tests/reporting (no run active).
  std::size_t size_unsafe() const { return size_; }
  std::size_t capacity_unsafe() const { return table_.size(); }

  Batcher& batcher() { return batcher_; }

  void run_batch(OpRecordBase* const* ops, std::size_t count) override {
    // Partition the batch: pushes first, then pops (§3).
    push_idx_.clear();
    pop_idx_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      auto* op = static_cast<Op*>(ops[i]);
      (op->kind == Kind::Push ? push_idx_ : pop_idx_).push_back(op);
    }

    // PUSH phase: grow if needed, then write all pushes in parallel.
    const std::size_t pushes = push_idx_.size();
    if (size_ + pushes > table_.size()) {
      grow_to(size_ + pushes);
    }
    rt::parallel_for(0, static_cast<std::int64_t>(pushes), [&](std::int64_t i) {
      table_[size_ + static_cast<std::size_t>(i)] =
          push_idx_[static_cast<std::size_t>(i)]->value;
    });
    size_ += pushes;

    // POP phase: pop j takes the j-th element below the new top, in parallel.
    const std::size_t pops = std::min(pop_idx_.size(), size_);
    rt::parallel_for(0, static_cast<std::int64_t>(pops), [&](std::int64_t j) {
      pop_idx_[static_cast<std::size_t>(j)]->out =
          table_[size_ - 1 - static_cast<std::size_t>(j)];
    });
    for (std::size_t j = pops; j < pop_idx_.size(); ++j) {
      pop_idx_[j]->out = std::nullopt;  // underflow
    }
    size_ -= pops;

    // Shrink when under a quarter full (amortized halving).
    if (table_.size() > kInitialCapacity && size_ < table_.size() / 4) {
      shrink();
    }
  }

 private:
  static constexpr std::size_t kInitialCapacity = 8;

  void grow_to(std::size_t needed) {
    std::size_t cap = table_.size();
    while (cap < needed) cap *= 2;
    rebuild(cap);
  }

  void shrink() { rebuild(std::max(kInitialCapacity, table_.size() / 2)); }

  // Table rebuild: allocate new space and copy all live elements in parallel
  // (the Θ(size) batch the amortization pays for).
  void rebuild(std::size_t cap) {
    std::vector<T> bigger(cap);
    rt::parallel_for(0, static_cast<std::int64_t>(size_), [&](std::int64_t i) {
      bigger[static_cast<std::size_t>(i)] =
          std::move(table_[static_cast<std::size_t>(i)]);
    });
    table_ = std::move(bigger);
  }

  std::vector<T> table_;
  std::size_t size_ = 0;
  std::vector<Op*> push_idx_;  // scratch, reused across batches
  std::vector<Op*> pop_idx_;
  Batcher batcher_;
};

}  // namespace batcher::ds
