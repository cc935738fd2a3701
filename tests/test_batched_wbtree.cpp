// Tests for the join-based weight-balanced batched tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <vector>

#include "ds/batched_wbtree.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"

namespace batcher::ds {
namespace {

using Key = BatchedWBTree::Key;

TEST(BatchedWBTree, EmptyTreeBasics) {
  rt::Scheduler sched(1);
  BatchedWBTree tree(sched);
  EXPECT_EQ(tree.size_unsafe(), 0u);
  EXPECT_FALSE(tree.contains_unsafe(0));
  EXPECT_TRUE(tree.check_invariants());
}

TEST(BatchedWBTree, SequentialInsertsStayBalanced) {
  rt::Scheduler sched(1);
  BatchedWBTree tree(sched);
  // Ascending order is the classic worst case for unbalanced BSTs.
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree.insert_unsafe(k));
    ASSERT_TRUE(tree.check_invariants()) << "after " << k;
  }
  EXPECT_EQ(tree.size_unsafe(), 2000u);
  EXPECT_LE(tree.height_unsafe(), 32);  // weight balance caps depth at c·lg n
}

TEST(BatchedWBTree, BulkBuildAndQueries) {
  rt::Scheduler sched(4);
  BatchedWBTree tree(sched);
  std::vector<Key> keys;
  for (Key k = 0; k < 10000; ++k) keys.push_back(k * 3);
  tree.bulk_build_unsafe(keys);
  EXPECT_EQ(tree.size_unsafe(), 10000u);
  EXPECT_TRUE(tree.check_invariants());
  EXPECT_TRUE(tree.contains_unsafe(0));
  EXPECT_TRUE(tree.contains_unsafe(29997));
  EXPECT_FALSE(tree.contains_unsafe(1));
}

class WBTreeParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(WBTreeParam, ParallelInsertsMatchReference) {
  rt::Scheduler sched(GetParam());
  BatchedWBTree tree(sched);
  constexpr std::int64_t kN = 4000;
  Xoshiro256 rng(3);
  std::vector<Key> keys(kN);
  for (auto& k : keys) k = static_cast<Key>(rng.next_below(kN));
  std::set<Key> reference(keys.begin(), keys.end());
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      tree.insert(keys[static_cast<std::size_t>(i)]);
    });
  });
  EXPECT_EQ(tree.size_unsafe(), reference.size());
  EXPECT_TRUE(tree.check_invariants());
  for (Key k : reference) ASSERT_TRUE(tree.contains_unsafe(k));
}

TEST_P(WBTreeParam, ParallelErasesAreStructural) {
  rt::Scheduler sched(GetParam());
  BatchedWBTree tree(sched);
  for (Key k = 0; k < 1000; ++k) tree.insert_unsafe(k);
  std::atomic<std::int64_t> hits{0};
  sched.run([&] {
    rt::parallel_for(0, 1500, [&](std::int64_t i) {
      if (tree.erase(i)) hits.fetch_add(1);
    });
  });
  EXPECT_EQ(hits.load(), 1000);
  EXPECT_EQ(tree.size_unsafe(), 0u);
  EXPECT_TRUE(tree.check_invariants());
}

TEST_P(WBTreeParam, RankSelectRangeCount) {
  rt::Scheduler sched(GetParam());
  BatchedWBTree tree(sched);
  std::vector<Key> keys;
  for (Key k = 0; k < 500; ++k) keys.push_back(k * 2);  // evens 0..998
  tree.bulk_build_unsafe(keys);

  std::atomic<std::int64_t> bad{0};
  sched.run([&] {
    rt::parallel_for(0, 500, [&](std::int64_t i) {
      if (tree.rank(i * 2) != i) bad.fetch_add(1);          // #smaller evens
      if (tree.rank(i * 2 + 1) != i + 1) bad.fetch_add(1);  // odd probes
      auto k = tree.select(i);
      if (!k.has_value() || *k != i * 2) bad.fetch_add(1);
      if (tree.range_count(0, i * 2) != i + 1) bad.fetch_add(1);
    });
  });
  EXPECT_EQ(bad.load(), 0);
  // Out-of-range select.
  sched.run([&] { EXPECT_FALSE(tree.select(500).has_value()); });
}

TEST_P(WBTreeParam, IdenticalKeysInOneStorm) {
  // The paper's motivating hard case: P identical keys inserted at once.
  rt::Scheduler sched(GetParam());
  BatchedWBTree tree(sched);
  std::atomic<int> winners{0};
  sched.run([&] {
    rt::parallel_for(0, 64, [&](std::int64_t) {
      if (tree.insert(7)) winners.fetch_add(1);
    });
  });
  EXPECT_EQ(winners.load(), 1);
  EXPECT_EQ(tree.size_unsafe(), 1u);
  EXPECT_TRUE(tree.check_invariants());
}

TEST_P(WBTreeParam, MixedWorkloadDisjointKeyRanges) {
  // Contains, erase and insert on disjoint keys share batches, so one batch
  // can run all three phases of the BOP.
  rt::Scheduler sched(GetParam());
  BatchedWBTree tree(sched);
  for (Key k = 0; k < 600; ++k) tree.insert_unsafe(k);
  std::atomic<std::int64_t> contains_hits{0}, erase_hits{0}, inserts{0};
  sched.run([&] {
    rt::parallel_for(0, 600, [&](std::int64_t i) {
      switch (i % 3) {
        case 0:
          if (tree.contains(i)) contains_hits.fetch_add(1);
          break;
        case 1:
          if (tree.erase(i)) erase_hits.fetch_add(1);
          break;
        default:
          if (tree.insert(i + 10000)) inserts.fetch_add(1);
          break;
      }
    });
  });
  EXPECT_EQ(contains_hits.load(), 200);
  EXPECT_EQ(erase_hits.load(), 200);
  EXPECT_EQ(inserts.load(), 200);
  EXPECT_EQ(tree.size_unsafe(), 600u);
  EXPECT_TRUE(tree.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, WBTreeParam,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(BatchedWBTree, LargeBatchUnionKeepsBalance) {
  rt::Scheduler sched(4);
  BatchedWBTree tree(sched);
  tree.insert_unsafe(1 << 20);
  std::vector<BatchedWBTree::Op> ops(2048);
  std::vector<OpRecordBase*> ptrs;
  Xoshiro256 rng(8);
  std::set<Key> reference{1 << 20};
  for (auto& op : ops) {
    op.kind = BatchedWBTree::Kind::Insert;
    op.key = static_cast<Key>(rng.next_below(1u << 30));
    reference.insert(op.key);
    ptrs.push_back(&op);
  }
  tree.run_batch(ptrs.data(), ptrs.size());
  EXPECT_EQ(tree.size_unsafe(), reference.size());
  EXPECT_TRUE(tree.check_invariants());
}

TEST(BatchedWBTree, SkewedBatchesIntoSkewedTree) {
  // Union of a batch far to one side of the existing keys stresses the join
  // spine rotations.
  rt::Scheduler sched(2);
  BatchedWBTree tree(sched);
  for (Key k = 0; k < 3000; ++k) tree.insert_unsafe(k);
  std::vector<BatchedWBTree::Op> ops(512);
  std::vector<OpRecordBase*> ptrs;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    ops[i].kind = BatchedWBTree::Kind::Insert;
    ops[i].key = 1000000 + static_cast<Key>(i);
    ptrs.push_back(&ops[i]);
  }
  tree.run_batch(ptrs.data(), ptrs.size());
  EXPECT_TRUE(tree.check_invariants());
  EXPECT_EQ(tree.size_unsafe(), 3512u);
}

TEST(BatchedWBTree, AlternatingInsertEraseChurn) {
  rt::Scheduler sched(2);
  BatchedWBTree tree(sched);
  Xoshiro256 rng(10);
  std::set<Key> model;
  for (int round = 0; round < 40; ++round) {
    std::vector<BatchedWBTree::Op> ops(64);
    std::vector<OpRecordBase*> ptrs;
    for (auto& op : ops) {
      op.key = static_cast<Key>(rng.next_below(256));
      op.kind = (rng.next() & 1) ? BatchedWBTree::Kind::Insert
                                 : BatchedWBTree::Kind::Erase;
      ptrs.push_back(&op);
    }
    tree.run_batch(ptrs.data(), ptrs.size());
    // Phase-aware model: erases first, then inserts (first-wins).
    std::set<Key> erased, inserted;
    for (const auto& op : ops) {
      if (op.kind == BatchedWBTree::Kind::Erase &&
          erased.insert(op.key).second) {
        model.erase(op.key);
      }
    }
    for (const auto& op : ops) {
      if (op.kind == BatchedWBTree::Kind::Insert &&
          inserted.insert(op.key).second) {
        model.insert(op.key);
      }
    }
    ASSERT_EQ(tree.size_unsafe(), model.size()) << "round " << round;
    ASSERT_TRUE(tree.check_invariants()) << "round " << round;
  }
  for (Key k = 0; k < 256; ++k) {
    ASSERT_EQ(tree.contains_unsafe(k), model.count(k) > 0) << k;
  }
}

TEST(BatchedWBTree, ReadsSeePreBatchState) {
  rt::Scheduler sched(2);
  BatchedWBTree tree(sched);
  tree.insert_unsafe(10);
  BatchedWBTree::Op contains_doomed, erase10, insert20, rank_probe;
  contains_doomed.kind = BatchedWBTree::Kind::Contains;
  contains_doomed.key = 10;
  erase10.kind = BatchedWBTree::Kind::Erase;
  erase10.key = 10;
  insert20.kind = BatchedWBTree::Kind::Insert;
  insert20.key = 20;
  rank_probe.kind = BatchedWBTree::Kind::Rank;
  rank_probe.key = 100;
  OpRecordBase* ops[4] = {&insert20, &erase10, &contains_doomed, &rank_probe};
  tree.run_batch(ops, 4);
  EXPECT_TRUE(contains_doomed.found);
  EXPECT_EQ(rank_probe.count, 1);  // pre-state: only key 10
  EXPECT_TRUE(erase10.found);
  EXPECT_TRUE(insert20.found);
  EXPECT_FALSE(tree.contains_unsafe(10));
  EXPECT_TRUE(tree.contains_unsafe(20));
}

TEST(BatchedWBTree, AgreesWithStdSetOnRandomWorkload) {
  rt::Scheduler sched(4);
  BatchedWBTree wb(sched);
  Xoshiro256 rng(12);
  std::set<Key> model;
  constexpr std::int64_t kN = 3000;
  std::vector<Key> keys(kN);
  for (auto& k : keys) {
    k = static_cast<Key>(rng.next_below(2000));
    model.insert(k);
  }
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      wb.insert(keys[static_cast<std::size_t>(i)]);
    });
  });
  EXPECT_EQ(wb.size_unsafe(), model.size());
  for (Key k = 0; k < 2000; ++k) {
    ASSERT_EQ(wb.contains_unsafe(k), model.count(k) > 0);
  }
}

}  // namespace
}  // namespace batcher::ds
