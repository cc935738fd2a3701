// Tests for the batched counter (paper Fig. 1/2).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <numeric>
#include <vector>

#include "ds/batched_counter.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"

namespace batcher::ds {
namespace {

// The second axis is the launcher's chain limit (DESIGN.md §11): `Off` runs
// one launch per flag hold, `Short` at most two, `Full` the default P.
enum class Chain { Off, Short, Full };

class CounterTest
    : public ::testing::TestWithParam<std::tuple<unsigned, Chain>> {
 protected:
  unsigned workers() const { return std::get<0>(GetParam()); }
  static void set_chain(BatchedCounter& counter) {
    switch (std::get<1>(GetParam())) {
      case Chain::Off: counter.batcher().set_chain_limit(1); break;
      case Chain::Short: counter.batcher().set_chain_limit(2); break;
      case Chain::Full: break;
    }
  }
};

TEST_P(CounterTest, FinalValueIsSumOfDeltas) {
  rt::Scheduler sched(workers());
  BatchedCounter counter(sched, /*initial=*/100);
  set_chain(counter);
  constexpr std::int64_t kN = 3000;
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) { counter.increment(i); });
  });
  EXPECT_EQ(counter.value_unsafe(), 100 + kN * (kN - 1) / 2);
}

TEST_P(CounterTest, ResultsAreLinearizable) {
  // Every increment-by-1 must see a distinct post-value in [1, n], i.e. the
  // results form a permutation — exactly the linearizability argument the
  // paper makes for the prefix-sums BOP.
  rt::Scheduler sched(workers());
  BatchedCounter counter(sched);
  set_chain(counter);
  constexpr std::int64_t kN = 2000;
  std::vector<std::int64_t> seen(kN, -1);
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      seen[static_cast<std::size_t>(i)] = counter.increment(1);
    });
  });
  std::sort(seen.begin(), seen.end());
  for (std::int64_t i = 0; i < kN; ++i) {
    ASSERT_EQ(seen[static_cast<std::size_t>(i)], i + 1) << "duplicate or gap";
  }
}

TEST_P(CounterTest, NegativeDeltasAndReads) {
  rt::Scheduler sched(workers());
  BatchedCounter counter(sched);
  set_chain(counter);
  std::atomic<std::int64_t> read_sum{0};
  sched.run([&] {
    rt::parallel_for(0, 1000, [&](std::int64_t i) {
      if (i % 2 == 0) {
        counter.increment(5);
      } else {
        counter.increment(-5);
      }
      read_sum.fetch_add(counter.read() % 5);  // every snapshot divisible by 5
    });
  });
  EXPECT_EQ(counter.value_unsafe(), 0);
  EXPECT_EQ(read_sum.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CounterTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(Chain::Off, Chain::Short,
                                         Chain::Full)));

TEST(BatchedCounter, RunBatchDirectMatchesFigure2) {
  // Drive BOP directly with a hand-built batch, mimicking Fig. 2 exactly.
  rt::Scheduler sched(4);
  BatchedCounter counter(sched, 10);
  BatchedCounter::Op ops[3];
  ops[0].delta = 1;
  ops[1].delta = 2;
  ops[2].delta = 3;
  OpRecordBase* ptrs[3] = {&ops[0], &ops[1], &ops[2]};
  counter.run_batch(ptrs, 3);
  EXPECT_EQ(ops[0].result, 11);
  EXPECT_EQ(ops[1].result, 13);
  EXPECT_EQ(ops[2].result, 16);
  EXPECT_EQ(counter.value_unsafe(), 16);
}

TEST(BatchedCounter, BatchesActuallyForm) {
  // With parallel callers, mean batch size should exceed 1 (the scheduler
  // accumulates operations while a batch runs).
  rt::Scheduler sched(8);
  BatchedCounter counter(sched);
  sched.run([&] {
    rt::parallel_for(0, 20000, [&](std::int64_t) { counter.increment(1); },
                     /*grain=*/1);
  });
  const BatcherStats stats = counter.batcher().stats();
  EXPECT_EQ(counter.value_unsafe(), 20000);
  EXPECT_EQ(stats.ops_processed, 20000u);
  // On a multi-core host the mean batch size comfortably exceeds 1; on a
  // single-core host (threads timeslice) batching still must never violate
  // the invariants, but multi-op batches are timing-dependent, so only the
  // weak bound is asserted here.  The simulator tests pin down the strong
  // claim deterministically (SimBatcher.ParallelCallersProduceRealBatches).
  EXPECT_GE(stats.mean_batch_size(), 1.0);
  EXPECT_LE(stats.max_batch_size, 8u);
}

}  // namespace
}  // namespace batcher::ds
