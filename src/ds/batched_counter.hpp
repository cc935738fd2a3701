// The paper's batched shared counter (Fig. 1/2).
//
// INCREMENT(x) atomically adds x (possibly negative) and returns the counter
// value *after* the addition.  The BOP is one parallel prefix sum over the
// batch's deltas, which makes the returned values linearizable: the batch
// realizes the order D[0], D[1], ..., D[count-1].
//
// W(n) = Θ(n) and s(n) = O(lg P), so Theorem 1 gives
// O((T1 + n lg P)/P + m lg P + T∞) for a program with n increments.
#pragma once

#include <cstdint>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"
#include "parallel/prefix_sum.hpp"
#include "runtime/api.hpp"

namespace batcher::ds {

class BatchedCounter final : public BatchedStructure {
 public:
  struct Op : OpRecordBase {
    std::int64_t delta = 0;
    std::int64_t result = 0;
  };

  explicit BatchedCounter(rt::Scheduler& sched, std::int64_t initial = 0)
      : value_(initial),
        scratch_(sched.num_workers()),
        batcher_(sched, *this) {}

  // Blocking operation for the algorithm programmer: adds `delta`, returns
  // the post-increment value.  Implicitly batched.
  std::int64_t increment(std::int64_t delta) {
    Op op;
    op.delta = delta;
    batcher_.batchify(op);
    return op.result;
  }

  // A read is an increment by zero: it participates in batching and returns
  // a linearizable snapshot.
  std::int64_t read() { return increment(0); }

  // Unsynchronized peek for use when no run is active (tests, reporting).
  std::int64_t value_unsafe() const { return value_; }

  const Batcher& batcher() const { return batcher_; }
  Batcher& batcher() { return batcher_; }

  // BOP (Fig. 2): seed with the current value, prefix-sum the deltas, write
  // results, and store the last prefix as the new counter value.
  void run_batch(OpRecordBase* const* ops, std::size_t count) override {
    for (std::size_t i = 0; i < count; ++i) {
      scratch_[i] = static_cast<const Op*>(ops[i])->delta;
    }
    scratch_[0] += value_;
    par::prefix_sums(scratch_.data(), static_cast<std::int64_t>(count));
    rt::parallel_for(0, static_cast<std::int64_t>(count), [&](std::int64_t i) {
      static_cast<Op*>(ops[static_cast<std::size_t>(i)])->result =
          scratch_[static_cast<std::size_t>(i)];
    });
    value_ = scratch_[count - 1];
  }

 private:
  std::int64_t value_;
  std::vector<std::int64_t> scratch_;  // reused across batches; size P
  Batcher batcher_;
};

}  // namespace batcher::ds
