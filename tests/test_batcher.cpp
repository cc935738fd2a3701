// Tests for the BATCHER scheduler extension itself, using an instrumented
// probe structure that checks the paper's invariants from inside BOP.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "batcher/batcher.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/stats.hpp"

namespace batcher {
namespace {

// A batched structure that records everything and asserts the invariants.
class ProbeStructure final : public BatchedStructure {
 public:
  struct Op : OpRecordBase {
    std::int64_t id = 0;
    std::int64_t result = 0;
  };

  explicit ProbeStructure(unsigned P) : max_allowed_(P) {}

  void run_batch(OpRecordBase* const* ops, std::size_t count) override {
    // Invariant 1: at most one batch at a time.
    const int active = active_.fetch_add(1);
    EXPECT_EQ(active, 0) << "overlapping batches observed";
    // Invariant 2: batches contain at most P operations.
    EXPECT_LE(count, max_allowed_);

    for (std::size_t i = 0; i < count; ++i) {
      Op* op = static_cast<Op*>(ops[i]);
      op->result = op->id * 2 + 1;
    }
    ops_seen_.fetch_add(static_cast<std::int64_t>(count));
    batches_.fetch_add(1);
    if (static_cast<std::int64_t>(count) > max_batch_.load()) {
      max_batch_.store(static_cast<std::int64_t>(count));
    }
    active_.fetch_sub(1);
  }

  std::atomic<int> active_{0};
  std::atomic<std::int64_t> ops_seen_{0};
  std::atomic<std::int64_t> batches_{0};
  std::atomic<std::int64_t> max_batch_{0};
  std::size_t max_allowed_;
};

// The second axis is the launcher's chain limit (DESIGN.md §11): `Off` runs
// one launch per flag hold, `Short` at most two, `Full` the default P.  The
// invariants below must hold whether or not a launcher chains.
enum class Chain { Off, Short, Full };

class BatcherTest
    : public ::testing::TestWithParam<std::tuple<unsigned, Chain>> {
 protected:
  static void set_chain(Batcher& batcher) {
    switch (std::get<1>(GetParam())) {
      case Chain::Off: batcher.set_chain_limit(1); break;
      case Chain::Short: batcher.set_chain_limit(2); break;
      case Chain::Full: break;
    }
  }
};

TEST_P(BatcherTest, EveryOperationProcessedExactlyOnce) {
  const unsigned P = std::get<0>(GetParam());
  rt::Scheduler sched(P);
  ProbeStructure probe(P);
  Batcher batcher(sched, probe);
  set_chain(batcher);

  constexpr std::int64_t kN = 2000;
  std::vector<std::int64_t> results(kN, -1);
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      ProbeStructure::Op op;
      op.id = i;
      batcher.batchify(op);
      results[static_cast<std::size_t>(i)] = op.result;
    });
  });

  EXPECT_EQ(probe.ops_seen_.load(), kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], i * 2 + 1) << "op " << i;
  }
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.ops_processed, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(stats.announce_pushes, stats.ops_processed);  // one per batchify
  EXPECT_EQ(stats.batches_launched,
            static_cast<std::uint64_t>(probe.batches_.load()) +
                stats.empty_batches);
  EXPECT_LE(stats.max_batch_size, P);
}

TEST_P(BatcherTest, SequentialCallerMakesSingletonBatches) {
  const unsigned P = std::get<0>(GetParam());
  rt::Scheduler sched(P);
  ProbeStructure probe(P);
  Batcher batcher(sched, probe);
  set_chain(batcher);

  sched.run([&] {
    for (std::int64_t i = 0; i < 50; ++i) {
      ProbeStructure::Op op;
      op.id = i;
      batcher.batchify(op);
      EXPECT_EQ(op.result, i * 2 + 1);
    }
  });
  // A strictly sequential caller can never have two ops pending at once.
  EXPECT_EQ(batcher.stats().max_batch_size, 1u);
  EXPECT_EQ(probe.ops_seen_.load(), 50);
}

TEST_P(BatcherTest, HistogramAccountsForAllBatches) {
  const unsigned P = std::get<0>(GetParam());
  rt::Scheduler sched(P);
  ProbeStructure probe(P);
  Batcher batcher(sched, probe);
  set_chain(batcher);

  sched.run([&] {
    rt::parallel_for(0, 500, [&](std::int64_t i) {
      ProbeStructure::Op op;
      op.id = i;
      batcher.batchify(op);
    });
  });
  const BatcherStats stats = batcher.stats();
  std::uint64_t total_batches = 0;
  std::uint64_t total_ops = 0;
  for (std::size_t k = 0; k < stats.batch_size_histogram.size(); ++k) {
    total_batches += stats.batch_size_histogram[k];
    total_ops += stats.batch_size_histogram[k] * k;
  }
  EXPECT_EQ(total_batches, stats.batches_launched);
  EXPECT_EQ(total_ops, stats.ops_processed);
  EXPECT_EQ(total_ops, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, BatcherTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(Chain::Off, Chain::Short,
                                         Chain::Full)));

TEST(Batcher, TwoIndependentDomains) {
  // Two data structures batch independently; ops interleave freely.
  rt::Scheduler sched(4);
  ProbeStructure probe_a(4), probe_b(4);
  Batcher batcher_a(sched, probe_a);
  Batcher batcher_b(sched, probe_b);

  constexpr std::int64_t kN = 400;
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      ProbeStructure::Op op;
      op.id = i;
      if (i % 2 == 0) {
        batcher_a.batchify(op);
      } else {
        batcher_b.batchify(op);
      }
      EXPECT_EQ(op.result, i * 2 + 1);
    });
  });
  EXPECT_EQ(probe_a.ops_seen_.load() + probe_b.ops_seen_.load(), kN);
}

TEST(Batcher, OpsFromNestedParallelism) {
  rt::Scheduler sched(4);
  ProbeStructure probe(4);
  Batcher batcher(sched, probe);
  std::atomic<std::int64_t> sum{0};
  sched.run([&] {
    rt::parallel_for(0, 64, [&](std::int64_t i) {
      rt::parallel_invoke(
          [&] {
            ProbeStructure::Op op;
            op.id = i;
            batcher.batchify(op);
            sum.fetch_add(op.result);
          },
          [&] {
            ProbeStructure::Op op;
            op.id = i + 1000;
            batcher.batchify(op);
            sum.fetch_add(op.result);
          });
    });
  });
  EXPECT_EQ(probe.ops_seen_.load(), 128);
  // sum of (2i+1) for i in [0,64) plus (2(i+1000)+1).
  std::int64_t expected = 0;
  for (std::int64_t i = 0; i < 64; ++i) expected += (2 * i + 1) + (2 * (i + 1000) + 1);
  EXPECT_EQ(sum.load(), expected);
}

TEST(Batcher, StatsStayConsistentUnderBatchifyStorms) {
  // Regression guard: histogram, max and mean must stay mutually consistent
  // while P workers hammer batchify across many rounds.  Checked after every
  // round (stats are exact whenever no batch is in flight).
  constexpr unsigned P = 8;
  rt::Scheduler sched(P);
  ProbeStructure probe(P);
  Batcher batcher(sched, probe);

  constexpr int kRounds = 25;
  constexpr std::int64_t kOpsPerRound = 400;
  for (int round = 0; round < kRounds; ++round) {
    sched.run([&] {
      rt::parallel_for(0, kOpsPerRound, [&](std::int64_t i) {
        ProbeStructure::Op op;
        op.id = i;
        batcher.batchify(op);
      },
                       /*grain=*/1);
    });

    const BatcherStats stats = batcher.stats();
    ASSERT_EQ(stats.ops_processed,
              static_cast<std::uint64_t>(kOpsPerRound) * (round + 1))
        << "round " << round;
    ASSERT_EQ(stats.batch_size_histogram.size(), static_cast<std::size_t>(P) + 1);

    std::uint64_t hist_batches = 0, hist_ops = 0, hist_max = 0;
    for (std::size_t k = 0; k < stats.batch_size_histogram.size(); ++k) {
      const std::uint64_t n = stats.batch_size_histogram[k];
      hist_batches += n;
      hist_ops += n * k;
      if (n > 0 && k > hist_max) hist_max = k;
    }
    // Every launched batch is in exactly one histogram bucket...
    ASSERT_EQ(hist_batches, stats.batches_launched) << "round " << round;
    // ...bucket 0 is exactly the empty launches...
    ASSERT_EQ(stats.batch_size_histogram[0], stats.empty_batches)
        << "round " << round;
    // ...the weighted sum is the op count...
    ASSERT_EQ(hist_ops, stats.ops_processed) << "round " << round;
    // ...the max matches the highest populated bucket (Invariant 2 caps both)...
    ASSERT_EQ(hist_max, stats.max_batch_size) << "round " << round;
    ASSERT_LE(stats.max_batch_size, static_cast<std::uint64_t>(P));
    // ...ops split exactly into failed and succeeded (no faults here, so
    // nothing failed and every non-empty launch is clean)...
    ASSERT_EQ(stats.ops_processed, stats.ops_failed + stats.ops_succeeded)
        << "round " << round;
    ASSERT_EQ(stats.ops_failed, 0u);
    ASSERT_EQ(stats.clean_nonempty_batches,
              stats.batches_launched - stats.empty_batches)
        << "round " << round;
    // ...and the mean is succeeded ops over clean non-empty launches.
    if (stats.clean_nonempty_batches > 0) {
      ASSERT_DOUBLE_EQ(stats.mean_batch_size(),
                       static_cast<double>(stats.ops_succeeded) /
                           static_cast<double>(stats.clean_nonempty_batches));
      ASSERT_LE(stats.mean_batch_size(), static_cast<double>(P));
      ASSERT_GE(stats.mean_batch_size(), 1.0);
    }
  }
  EXPECT_EQ(probe.ops_seen_.load(), kOpsPerRound * kRounds);
}

// --- announce-list collect and batch chaining (§11) -------------------------

// A probe whose BOP yields repeatedly: other (timesliced) workers get CPU
// while the batch flag is held, announce their ops, and the launcher finds a
// non-empty announce list when the batch finishes — the chaining condition.
class YieldingProbe final : public BatchedStructure {
 public:
  struct Op : OpRecordBase {
    std::int64_t id = 0;
    std::int64_t result = 0;
  };

  void run_batch(OpRecordBase* const* ops, std::size_t count) override {
    for (int i = 0; i < 16; ++i) std::this_thread::yield();
    for (std::size_t i = 0; i < count; ++i) {
      Op* op = static_cast<Op*>(ops[i]);
      op->result = op->id + 1;
    }
    ops_seen_.fetch_add(static_cast<std::int64_t>(count));
  }

  std::atomic<std::int64_t> ops_seen_{0};
};

// Runs one storm round against `batcher`; every op's result is checked.
void announce_storm_round(rt::Scheduler& sched, Batcher& batcher,
                          std::int64_t ops) {
  sched.run([&] {
    rt::parallel_for(0, ops, [&](std::int64_t i) {
      YieldingProbe::Op op;
      op.id = i;
      batcher.batchify(op);
      ASSERT_EQ(op.result, i + 1);
    },
                     /*grain=*/1);
  });
}

TEST(AnnounceChaining, SlowBopProducesChainedLaunches) {
  constexpr unsigned P = 8;
  rt::Scheduler sched(P);
  YieldingProbe probe;
  Batcher batcher(sched, probe);
  ASSERT_EQ(batcher.chain_limit(), static_cast<std::size_t>(P));

  // Chaining needs at least one worker to announce while the BOP runs; the
  // yielding BOP makes that overwhelmingly likely per round, but it is still
  // schedule-dependent, so run rounds until observed (bounded).
  std::int64_t total = 0;
  for (int round = 0; round < 40 && batcher.stats().chained_launches == 0;
       ++round) {
    announce_storm_round(sched, batcher, 200);
    total += 200;
  }
  const BatcherStats stats = batcher.stats();
  EXPECT_GT(stats.chained_launches, 0u)
      << "no chained launch in " << total << " announce-path ops";
  EXPECT_LE(stats.chained_launches, stats.batches_launched);
  EXPECT_EQ(stats.ops_processed, static_cast<std::uint64_t>(total));
  EXPECT_EQ(probe.ops_seen_.load(), total);
  EXPECT_GT(stats.announce_pushes, 0u);
  // Every processed op announced itself exactly once.
  EXPECT_EQ(stats.announce_pushes, stats.ops_processed);
}

TEST(AnnounceChaining, ChainLimitOneDisablesChaining) {
  constexpr unsigned P = 8;
  rt::Scheduler sched(P);
  YieldingProbe probe;
  Batcher batcher(sched, probe);
  batcher.set_chain_limit(1);
  ASSERT_EQ(batcher.chain_limit(), 1u);

  for (int round = 0; round < 5; ++round) {
    announce_storm_round(sched, batcher, 200);
  }
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.chained_launches, 0u);
  EXPECT_EQ(stats.ops_processed, 1000u);
}

// Counts launches per flag hold straight off the hook stream: a hold starts
// at kFlagWon with one launch and grows by one per kLaunchChained, so the
// per-hold launch count must never exceed the configured chain limit.
class ChainBoundObserver final : public rt::hooks::ScheduleObserver {
 public:
  explicit ChainBoundObserver(std::uint64_t limit) : limit_(limit) {}

  void on_event(const rt::hooks::Event& event) override {
    using P = rt::hooks::EventId;
    // Flag ownership is serialized per domain, so these two points never
    // race each other; relaxed atomics only make the counters TSan-clean.
    if (event.id == P::kFlagWon) {
      launches_this_hold_.store(1, std::memory_order_relaxed);
    } else if (event.id == P::kLaunchChained) {
      const std::uint64_t n =
          launches_this_hold_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (n > limit_) over_limit_.store(true, std::memory_order_relaxed);
      if (event.value < 1 || event.value != n - 1) {
        bad_index_.store(true, std::memory_order_relaxed);
      }
      chained_seen_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  bool over_limit() const { return over_limit_.load(); }
  bool bad_index() const { return bad_index_.load(); }
  std::uint64_t chained_seen() const { return chained_seen_.load(); }

 private:
  const std::uint64_t limit_;
  std::atomic<std::uint64_t> launches_this_hold_{0};
  std::atomic<std::uint64_t> chained_seen_{0};
  std::atomic<bool> over_limit_{false};
  std::atomic<bool> bad_index_{false};
};

TEST(AnnounceChaining, LaunchesPerFlagHoldRespectChainLimit) {
  if (!rt::hooks::kEnabled) {
    GTEST_SKIP() << "built without BATCHER_AUDIT; no live hook stream";
  }
  constexpr unsigned P = 8;
  constexpr std::size_t kLimit = 3;
  ChainBoundObserver observer(kLimit);
  rt::hooks::install_observer(&observer);
  {
    rt::Scheduler sched(P);
    YieldingProbe probe;
    Batcher batcher(sched, probe);
    batcher.set_chain_limit(kLimit);
    for (int round = 0; round < 10; ++round) {
      announce_storm_round(sched, batcher, 200);
    }
  }  // scheduler destroyed: no further emissions
  rt::hooks::install_observer(nullptr);
  EXPECT_FALSE(observer.over_limit())
      << "a flag hold ran more than " << kLimit << " launches";
  EXPECT_FALSE(observer.bad_index())
      << "kLaunchChained chain indices not consecutive from 1";
}

TEST(AnnounceChaining, SingleWorkerNeverStealsNorChains) {
  // P=1 regression for the try_steal early return: with nobody to steal
  // from, a run must record zero steal attempts — and chaining is impossible
  // (chain_limit clamps to 1 and no second worker can announce mid-launch).
  rt::StatsSnapshot snap;
  {
    rt::Scheduler sched(1);
    sched.export_final_stats(&snap);
    YieldingProbe probe;
    Batcher batcher(sched, probe);
    ASSERT_EQ(batcher.chain_limit(), 1u);
    sched.run([&] {
      rt::parallel_for(0, 128, [&](std::int64_t i) {
        YieldingProbe::Op op;
        op.id = i;
        batcher.batchify(op);
        ASSERT_EQ(op.result, i + 1);
      },
                       /*grain=*/1);
    });
    const BatcherStats stats = batcher.stats();
    EXPECT_EQ(stats.ops_processed, 128u);
    EXPECT_EQ(stats.chained_launches, 0u);
    EXPECT_EQ(stats.max_batch_size, 1u);
  }  // destruction publishes the final snapshot
  EXPECT_EQ(snap.core_steal_attempts, 0u);
  EXPECT_EQ(snap.batch_steal_attempts, 0u);
  EXPECT_EQ(snap.steals_succeeded, 0u);
}

TEST(Batcher, StatsResetClearsCounters) {
  rt::Scheduler sched(2);
  ProbeStructure probe(2);
  Batcher batcher(sched, probe);
  sched.run([&] {
    ProbeStructure::Op op;
    op.id = 1;
    batcher.batchify(op);
  });
  EXPECT_GT(batcher.stats().batches_launched, 0u);
  batcher.reset_stats();
  const BatcherStats stats = batcher.stats();
  EXPECT_EQ(stats.batches_launched, 0u);
  EXPECT_EQ(stats.ops_processed, 0u);
  EXPECT_EQ(stats.max_batch_size, 0u);
}

}  // namespace
}  // namespace batcher
