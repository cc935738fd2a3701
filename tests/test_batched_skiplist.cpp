// Tests for the batched skip list (paper §7).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "ds/batched_skiplist.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"

namespace batcher::ds {
namespace {

using Key = BatchedSkipList::Key;

TEST(BatchedSkipList, UnsafeInsertAndContains) {
  rt::Scheduler sched(1);
  BatchedSkipList list(sched);
  EXPECT_TRUE(list.insert_unsafe(5));
  EXPECT_TRUE(list.insert_unsafe(1));
  EXPECT_TRUE(list.insert_unsafe(9));
  EXPECT_FALSE(list.insert_unsafe(5));  // duplicate
  EXPECT_TRUE(list.contains_unsafe(1));
  EXPECT_TRUE(list.contains_unsafe(5));
  EXPECT_TRUE(list.contains_unsafe(9));
  EXPECT_FALSE(list.contains_unsafe(4));
  EXPECT_EQ(list.size_unsafe(), 3u);
  EXPECT_TRUE(list.check_invariants());
}

// Every forward link caches its target's key, and a null link caches
// INT64_MAX.  A stored INT64_MAX must still be told apart from the end of the
// list, and INT64_MIN from the head.
TEST(BatchedSkipList, UnsafeApiHandlesExtremeKeys) {
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  rt::Scheduler sched(1);
  BatchedSkipList list(sched);
  EXPECT_FALSE(list.contains_unsafe(kMax));
  EXPECT_FALSE(list.contains_unsafe(kMin));
  EXPECT_TRUE(list.insert_unsafe(kMax - 1));
  EXPECT_FALSE(list.contains_unsafe(kMax));
  EXPECT_TRUE(list.check_invariants());
  EXPECT_TRUE(list.insert_unsafe(kMax));
  EXPECT_TRUE(list.insert_unsafe(kMin));
  EXPECT_FALSE(list.insert_unsafe(kMax));
  EXPECT_FALSE(list.insert_unsafe(kMin));
  EXPECT_FALSE(list.insert_unsafe(kMax - 1));
  for (Key k = -40; k <= 40; ++k) list.insert_unsafe(k);
  EXPECT_TRUE(list.contains_unsafe(kMax));
  EXPECT_TRUE(list.contains_unsafe(kMax - 1));
  EXPECT_TRUE(list.contains_unsafe(kMin));
  EXPECT_FALSE(list.contains_unsafe(kMax - 2));
  EXPECT_FALSE(list.contains_unsafe(kMin + 1));
  EXPECT_EQ(list.size_unsafe(), 84u);
  EXPECT_TRUE(list.check_invariants());
}

class SkipListParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(SkipListParam, ParallelInsertsMatchReferenceSet) {
  rt::Scheduler sched(GetParam());
  BatchedSkipList list(sched);
  constexpr std::int64_t kN = 3000;
  Xoshiro256 rng(17);
  std::vector<Key> keys(kN);
  for (auto& k : keys) k = static_cast<Key>(rng.next_below(kN * 2));
  std::set<Key> reference(keys.begin(), keys.end());

  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      list.insert(keys[static_cast<std::size_t>(i)]);
    });
  });
  EXPECT_EQ(list.size_unsafe(), reference.size());
  EXPECT_TRUE(list.check_invariants());
  for (Key k : reference) EXPECT_TRUE(list.contains_unsafe(k));
  EXPECT_FALSE(list.contains_unsafe(kN * 2 + 5));
}

TEST_P(SkipListParam, InsertReportsNewness) {
  rt::Scheduler sched(GetParam());
  BatchedSkipList list(sched);
  constexpr std::int64_t kN = 1000;
  std::atomic<std::int64_t> fresh{0};
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      if (list.insert(i % 100)) fresh.fetch_add(1);
    });
  });
  EXPECT_EQ(fresh.load(), 100);
  EXPECT_EQ(list.size_unsafe(), 100u);
}

TEST_P(SkipListParam, MultiInsertHandlesManyKeysPerRecord) {
  // The paper's experiment creates 100 insertion records per BATCHIFY call.
  rt::Scheduler sched(GetParam());
  BatchedSkipList list(sched);
  constexpr std::int64_t kCalls = 100;
  constexpr std::int64_t kPerCall = 100;
  std::vector<std::vector<Key>> blocks(kCalls);
  Xoshiro256 rng(23);
  std::set<Key> reference;
  for (auto& block : blocks) {
    block.resize(kPerCall);
    for (auto& k : block) {
      k = static_cast<Key>(rng.next_below(1u << 20));
      reference.insert(k);
    }
  }
  sched.run([&] {
    rt::parallel_for(0, kCalls, [&](std::int64_t i) {
      list.multi_insert(blocks[static_cast<std::size_t>(i)]);
    });
  });
  EXPECT_EQ(list.size_unsafe(), reference.size());
  EXPECT_TRUE(list.check_invariants());
  for (Key k : reference) ASSERT_TRUE(list.contains_unsafe(k));
}

TEST_P(SkipListParam, EraseRemovesAndReports) {
  rt::Scheduler sched(GetParam());
  BatchedSkipList list(sched);
  for (Key k = 0; k < 500; ++k) list.insert_unsafe(k);
  std::atomic<std::int64_t> hits{0};
  sched.run([&] {
    rt::parallel_for(0, 500, [&](std::int64_t i) {
      if (list.erase(i * 2)) hits.fetch_add(1);  // even keys 0..998; >=500 miss
    });
  });
  EXPECT_EQ(hits.load(), 250);
  EXPECT_EQ(list.size_unsafe(), 250u);
  EXPECT_TRUE(list.check_invariants());
  for (Key k = 0; k < 500; ++k) {
    EXPECT_EQ(list.contains_unsafe(k), k % 2 == 1) << "key " << k;
  }
}

TEST_P(SkipListParam, MixedWorkloadAgainstPhaseAwareOracle) {
  // contains -> erase -> insert within a batch, so a contains can race with
  // a same-turn erase/insert only across batches.  We avoid key overlap
  // between op kinds so results are deterministic regardless of batching.
  rt::Scheduler sched(GetParam());
  BatchedSkipList list(sched);
  for (Key k = 0; k < 300; ++k) list.insert_unsafe(k * 3);  // multiples of 3
  std::atomic<std::int64_t> contains_hits{0}, erase_hits{0}, insert_new{0};
  sched.run([&] {
    rt::parallel_for(0, 300, [&](std::int64_t i) {
      switch (i % 3) {
        case 0:  // contains on untouched keys
          if (list.contains(i * 3)) contains_hits.fetch_add(1);
          break;
        case 1:  // erase keys never queried
          if (list.erase(i * 3)) erase_hits.fetch_add(1);
          break;
        default:  // insert brand-new keys
          if (list.insert(i * 3 + 1)) insert_new.fetch_add(1);
          break;
      }
    });
  });
  EXPECT_EQ(contains_hits.load(), 100);
  EXPECT_EQ(erase_hits.load(), 100);
  EXPECT_EQ(insert_new.load(), 100);
  EXPECT_EQ(list.size_unsafe(), 300u - 100u + 100u);
  EXPECT_TRUE(list.check_invariants());
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SkipListParam,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(BatchedSkipList, BatchWithDuplicateInsertsFirstWins) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched);
  using Op = BatchedSkipList::Op;
  Op a, b, c;
  a.kind = b.kind = c.kind = BatchedSkipList::Kind::Insert;
  a.key = b.key = 7;
  c.key = 9;
  OpRecordBase* ops[3] = {&a, &b, &c};
  list.run_batch(ops, 3);
  EXPECT_TRUE(a.found);
  EXPECT_FALSE(b.found);
  EXPECT_TRUE(c.found);
  EXPECT_EQ(list.size_unsafe(), 2u);
  EXPECT_TRUE(list.check_invariants());
}

TEST(BatchedSkipList, BatchPhaseOrderContainsSeesPreState) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched);
  list.insert_unsafe(10);
  using Op = BatchedSkipList::Op;
  Op contains_new, contains_old, erase_old, insert_new;
  contains_new.kind = BatchedSkipList::Kind::Contains;
  contains_new.key = 20;  // inserted in this same batch
  contains_old.kind = BatchedSkipList::Kind::Contains;
  contains_old.key = 10;  // erased in this same batch
  erase_old.kind = BatchedSkipList::Kind::Erase;
  erase_old.key = 10;
  insert_new.kind = BatchedSkipList::Kind::Insert;
  insert_new.key = 20;
  OpRecordBase* ops[4] = {&insert_new, &erase_old, &contains_new, &contains_old};
  list.run_batch(ops, 4);
  EXPECT_FALSE(contains_new.found) << "contains must see pre-batch state";
  EXPECT_TRUE(contains_old.found) << "contains must see pre-batch state";
  EXPECT_TRUE(erase_old.found);
  EXPECT_TRUE(insert_new.found);
  EXPECT_TRUE(list.contains_unsafe(20));
  EXPECT_FALSE(list.contains_unsafe(10));
}

TEST(BatchedSkipList, SortedAndReverseSortedBulkInserts) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched);
  std::vector<Key> asc(1000), desc(1000);
  for (int i = 0; i < 1000; ++i) {
    asc[static_cast<std::size_t>(i)] = i;
    desc[static_cast<std::size_t>(i)] = 5000 - i;
  }
  sched.run([&] {
    list.multi_insert(asc);
    list.multi_insert(desc);
  });
  EXPECT_EQ(list.size_unsafe(), 2000u);
  EXPECT_TRUE(list.check_invariants());
}

TEST(BatchedSkipList, AdjacentAndNegativeKeys) {
  rt::Scheduler sched(2);
  BatchedSkipList list(sched);
  sched.run([&] {
    rt::parallel_for(-50, 50, [&](std::int64_t i) { list.insert(i); });
  });
  EXPECT_EQ(list.size_unsafe(), 100u);
  EXPECT_TRUE(list.check_invariants());
  EXPECT_TRUE(list.contains_unsafe(-50));
  EXPECT_TRUE(list.contains_unsafe(49));
  EXPECT_FALSE(list.contains_unsafe(50));
}

TEST(BatchedSkipList, SuccessorQueries) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched);
  for (Key k = 0; k < 100; ++k) list.insert_unsafe(k * 10);  // 0,10,...,990
  std::atomic<std::int64_t> bad{0};
  sched.run([&] {
    rt::parallel_for(0, 100, [&](std::int64_t i) {
      // Probe between stored keys: successor is the next multiple of 10.
      auto s = list.successor(i * 10 - 5);
      if (!s.has_value() || *s != i * 10) bad.fetch_add(1);
      // Exact probe returns the key itself.
      auto e = list.successor(i * 10);
      if (!e.has_value() || *e != i * 10) bad.fetch_add(1);
    });
    EXPECT_FALSE(list.successor(991).has_value());
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(BatchedSkipList, RangeCountQueries) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched);
  for (Key k = 0; k < 1000; ++k) list.insert_unsafe(k);
  std::atomic<std::int64_t> bad{0};
  sched.run([&] {
    rt::parallel_for(0, 100, [&](std::int64_t i) {
      if (list.range_count(i, i + 49) != 50) bad.fetch_add(1);
      if (list.range_count(i, i) != 1) bad.fetch_add(1);
      if (list.range_count(1000 + i, 2000) != 0) bad.fetch_add(1);
    });
    EXPECT_EQ(list.range_count(-100, 5000), 1000);
  });
  EXPECT_EQ(bad.load(), 0);
}

TEST(BatchedSkipList, ReadsSeePreBatchStateInMixedBatch) {
  rt::Scheduler sched(2);
  BatchedSkipList list(sched);
  list.insert_unsafe(10);
  list.insert_unsafe(20);
  using Op = BatchedSkipList::Op;
  Op erase10, range_probe, succ_probe;
  erase10.kind = BatchedSkipList::Kind::Erase;
  erase10.key = 10;
  range_probe.kind = BatchedSkipList::Kind::RangeCount;
  range_probe.key = 0;
  range_probe.key2 = 100;
  succ_probe.kind = BatchedSkipList::Kind::Successor;
  succ_probe.key = 5;
  OpRecordBase* ops[3] = {&erase10, &range_probe, &succ_probe};
  list.run_batch(ops, 3);
  EXPECT_EQ(range_probe.count, 2) << "reads run before the erase phase";
  EXPECT_EQ(*succ_probe.out_key, 10);
  EXPECT_TRUE(erase10.found);
  EXPECT_FALSE(list.contains_unsafe(10));
}

TEST(BatchedSkipList, EraseEverythingThenReinsert) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched);
  for (Key k = 0; k < 200; ++k) list.insert_unsafe(k);
  sched.run([&] {
    rt::parallel_for(0, 200, [&](std::int64_t i) { list.erase(i); });
  });
  EXPECT_EQ(list.size_unsafe(), 0u);
  EXPECT_TRUE(list.check_invariants());
  sched.run([&] {
    rt::parallel_for(0, 200, [&](std::int64_t i) { list.insert(i); });
  });
  EXPECT_EQ(list.size_unsafe(), 200u);
  EXPECT_TRUE(list.check_invariants());
}

// ---------------------------------------------------------------------------
// Interleaved search groups.  The BOP searches a batch's distinct sorted
// keys, reads, erases and inserts together, in groups of 16 (kGroup)
// consecutive keys.  These batches sit around the group edges (1, 7, 8, 9,
// 15, 16, 17, 31, 32, 33 and 150 records; 8 was the group size before 16),
// run through run_batch at P = 1..4, and are checked against a std::set
// model of the documented phase order: reads see the pre-batch
// set, then erases, then inserts, the first record winning on a duplicate
// key (a single Insert before any MultiInsert payload).
// ---------------------------------------------------------------------------

using Kind = BatchedSkipList::Kind;

constexpr std::size_t kGroupEdgeSizes[] = {1,  7,  8,  9,  15, 16,
                                           17, 31, 32, 33, 150};

struct Rec {
  Kind kind = Kind::Insert;
  Key key = 0;
  Key key2 = 0;
  std::vector<Key> multi;  // MultiInsert payload
};

struct Expected {
  bool found = false;
  std::int64_t count = 0;
  std::optional<Key> out_key;
};

std::vector<Expected> model_batch(std::set<Key>& set,
                                  const std::vector<Rec>& recs) {
  std::vector<Expected> exp(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const Rec& r = recs[i];
    const auto succ = set.lower_bound(r.key);
    if (r.kind == Kind::Contains) exp[i].found = set.count(r.key) > 0;
    if (r.kind == Kind::Successor && succ != set.end()) exp[i].out_key = *succ;
    if (r.kind == Kind::RangeCount) {
      for (auto it = succ; it != set.end() && *it <= r.key2; ++it) {
        ++exp[i].count;
      }
    }
  }
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].kind == Kind::Erase) exp[i].found = set.erase(recs[i].key) > 0;
  }
  const std::set<Key> pre_insert = set;
  std::set<Key> claimed;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs[i].kind == Kind::Insert) {
      exp[i].found = claimed.insert(recs[i].key).second &&
                     pre_insert.count(recs[i].key) == 0;
      set.insert(recs[i].key);
    } else if (recs[i].kind == Kind::MultiInsert) {
      set.insert(recs[i].multi.begin(), recs[i].multi.end());
    }
  }
  return exp;
}

// Runs one batch on `list` inside `sched` and checks every record's result,
// the structure's invariants and its size against the model.
void run_and_check(rt::Scheduler& sched, BatchedSkipList& list,
                   std::set<Key>& model, const std::vector<Rec>& recs) {
  const std::vector<Expected> exp = model_batch(model, recs);
  std::vector<BatchedSkipList::Op> ops(recs.size());
  std::vector<OpRecordBase*> ptrs(recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    ops[i].kind = recs[i].kind;
    ops[i].key = recs[i].key;
    ops[i].key2 = recs[i].key2;
    ops[i].keys = recs[i].multi.data();
    ops[i].num_keys = recs[i].multi.size();
    ptrs[i] = &ops[i];
  }
  sched.run([&] { list.run_batch(ptrs.data(), ptrs.size()); });
  for (std::size_t i = 0; i < recs.size(); ++i) {
    switch (recs[i].kind) {
      case Kind::MultiInsert:
        break;  // no per-record result
      case Kind::Successor:
        ASSERT_EQ(ops[i].out_key, exp[i].out_key) << "record " << i;
        break;
      case Kind::RangeCount:
        ASSERT_EQ(ops[i].count, exp[i].count) << "record " << i;
        break;
      default:
        ASSERT_EQ(ops[i].found, exp[i].found)
            << "record " << i << " key " << recs[i].key;
        break;
    }
  }
  ASSERT_TRUE(list.check_invariants());
  ASSERT_EQ(list.size_unsafe(), model.size());
}

// A key on a grid of 10s (so probes between keys are meaningful), or, one
// time in eight, just outside the model's current [min, max].
Key draw_key(Xoshiro256& rng, const std::set<Key>& model, std::int64_t span) {
  const std::uint64_t pick = rng.next_below(16);
  if (pick == 0) {
    return (model.empty() ? 0 : *model.begin()) - 1 -
           static_cast<Key>(rng.next_below(20));
  }
  if (pick == 1) {
    return (model.empty() ? 10 * span : *model.rbegin()) + 1 +
           static_cast<Key>(rng.next_below(20));
  }
  return static_cast<Key>(rng.next_below(static_cast<std::uint64_t>(span))) *
         10;
}

std::vector<Rec> random_batch(Xoshiro256& rng, const std::set<Key>& model,
                              std::size_t n) {
  // About one distinct key per record, so duplicates are common.
  const auto span = static_cast<std::int64_t>(n) + 4;
  std::vector<Rec> recs(n);
  for (Rec& r : recs) {
    r.key = draw_key(rng, model, span);
    const std::uint64_t pick = rng.next_below(10);
    if (pick < 3) {
      r.kind = Kind::Insert;
    } else if (pick < 5) {
      r.kind = Kind::MultiInsert;
      r.multi.resize(1 + rng.next_below(4));
      for (Key& k : r.multi) k = draw_key(rng, model, span);
    } else if (pick < 7) {
      r.kind = Kind::Erase;
    } else if (pick < 8) {
      r.kind = Kind::Contains;
    } else if (pick < 9) {
      r.kind = Kind::Successor;
      r.key += static_cast<Key>(rng.next_below(15)) - 7;  // off-grid probes
    } else {
      r.kind = Kind::RangeCount;
      r.key2 = r.key + static_cast<Key>(rng.next_below(80));
    }
  }
  return recs;
}

class SkipListGroupParam : public ::testing::TestWithParam<unsigned> {};

TEST_P(SkipListGroupParam, MixedBatchesAroundGroupEdgesMatchSetModel) {
  rt::Scheduler sched(GetParam());
  for (const std::size_t n : kGroupEdgeSizes) {
    SCOPED_TRACE(testing::Message() << "batch size " << n);
    Xoshiro256 rng(1000 + n);
    BatchedSkipList list(sched, n);
    std::set<Key> model;  // every size starts from an empty list
    for (int round = 0; round < 40; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      ASSERT_NO_FATAL_FAILURE(
          run_and_check(sched, list, model, random_batch(rng, model, n)));
    }
  }
}

// Sorted keys k0 < k1 < ... laid out so that every eighth key repeats the
// key before it: every search group after the first (16 keys) opens with a
// second copy of the previous group's last key, and so does its middle.
std::vector<Key> keys_with_group_opening_duplicates(std::size_t n, Key base) {
  std::vector<Key> keys;
  Key next = base;
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(i > 0 && i % 8 == 0 ? keys.back() : next);
    next += 10;
  }
  return keys;
}

TEST_P(SkipListGroupParam, DuplicateOpeningAGroupIsResolvedOnce) {
  rt::Scheduler sched(GetParam());
  for (const std::size_t n : kGroupEdgeSizes) {
    SCOPED_TRACE(testing::Message() << "batch size " << n);
    Xoshiro256 rng(n);
    BatchedSkipList list(sched, n);
    std::set<Key> model;
    const std::vector<Key> keys = keys_with_group_opening_duplicates(n, 0);
    // Insert phase on an empty list, records in shuffled order.
    std::vector<Rec> recs(n);
    for (std::size_t i = 0; i < n; ++i) recs[i].key = keys[i];
    for (std::size_t i = n; i > 1; --i) {
      std::swap(recs[i - 1], recs[rng.next_below(i)]);
    }
    ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, recs));
    // The same pattern split across records: each group-opening copy is a
    // single Insert, which sorts ahead of (and wins over) its MultiInsert
    // twin, so the payload copy is the one opening the group.
    std::vector<Rec> mixed(1);
    mixed[0].kind = Kind::MultiInsert;
    const std::vector<Key> shifted = keys_with_group_opening_duplicates(n, 5);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0 && i % 8 == 0) {
        mixed.push_back(Rec{Kind::Insert, shifted[i], 0, {}});
      } else {
        mixed[0].multi.push_back(shifted[i]);
      }
    }
    ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, mixed));
    for (Rec& r : recs) r.kind = Kind::Erase;
    ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, recs));
  }
}

TEST_P(SkipListGroupParam, BatchRaisingTheHeightSearchesFromTheNewTop) {
  rt::Scheduler sched(GetParam());
  BatchedSkipList list(sched, 3);
  std::set<Key> model;
  // Reads, erases and inserts against the empty list first.
  constexpr Kind kKinds[] = {Kind::Insert,   Kind::MultiInsert,
                             Kind::Contains, Kind::Erase,
                             Kind::Successor, Kind::RangeCount};
  std::vector<Rec> empty_batch(9);
  for (std::size_t i = 0; i < empty_batch.size(); ++i) {
    empty_batch[i].kind = kKinds[i % 6];
    empty_batch[i].key = static_cast<Key>(i) * 10 - 40;
    empty_batch[i].key2 = empty_batch[i].key + 100;
    if (empty_batch[i].kind == Kind::MultiInsert) {
      empty_batch[i].multi = {-7, 7};
    }
  }
  ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, empty_batch));
  const int before = list.height_unsafe();
  std::vector<Rec> grow(150);
  for (std::size_t i = 0; i < grow.size(); ++i) {
    grow[i].key = static_cast<Key>(i) * 10 + 1000;
  }
  ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, grow));
  ASSERT_GT(list.height_unsafe(), before);
  Xoshiro256 rng(3);
  for (int round = 0; round < 20; ++round) {
    ASSERT_NO_FATAL_FAILURE(
        run_and_check(sched, list, model, random_batch(rng, model, 150)));
  }
}

// Read-only batches of 15, 16, 17 and 33 Contains/Successor/RangeCount
// records: their distinct keys are searched in groups of 16, so the last
// group holds up to 15, 16, 1 or 1 of them.  The list is pre-populated, so the
// descents take real right moves at several levels.
TEST_P(SkipListGroupParam, ReadBatchesAroundGroupEdgesMatchSetModel) {
  constexpr std::size_t kReadSizes[] = {15, 16, 17, 33};
  constexpr Kind kReads[] = {Kind::Contains, Kind::Successor,
                             Kind::RangeCount};
  rt::Scheduler sched(GetParam());
  BatchedSkipList list(sched, 5);
  std::set<Key> model;
  for (Key k = 0; k < 3000; k += 3) {
    ASSERT_TRUE(list.insert_unsafe(k));
    model.insert(k);
  }
  Xoshiro256 rng(GetParam() + 90);
  for (const std::size_t n : kReadSizes) {
    SCOPED_TRACE(testing::Message() << "batch size " << n);
    for (int round = 0; round < 20; ++round) {
      std::vector<Rec> recs(n);
      for (Rec& r : recs) {
        r.kind = kReads[rng.next_below(std::size(kReads))];
        r.key = static_cast<Key>(rng.next_below(3100)) - 50;
        r.key2 = r.key + static_cast<Key>(rng.next_below(40));
      }
      ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, recs));
    }
  }
}

// Erase batches only unlink up to their tallest victim's height.  Emptying a
// tall list in shuffled batches of every group-edge size, and its last 256
// keys one per batch (so each top-level node in that tail leaves as a lone
// victim), must keep every level consistent and lower the height exactly as
// the top levels empty: check_invariants() also checks that height_unsafe()
// counts the non-empty levels.
TEST_P(SkipListGroupParam, ErasingTheTallLevelsLowersTheHeight) {
  rt::Scheduler sched(GetParam());
  BatchedSkipList list(sched, 17);
  std::set<Key> model;
  std::vector<Rec> build(2000);
  for (std::size_t i = 0; i < build.size(); ++i) {
    build[i].key = static_cast<Key>(i) * 10;
  }
  ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, build));
  int height = list.height_unsafe();
  ASSERT_GE(height, 8);
  Xoshiro256 rng(GetParam());
  for (std::size_t i = build.size(); i > 1; --i) {
    std::swap(build[i - 1], build[rng.next_below(i)]);
  }
  std::size_t next = 0;
  for (int round = 0; next < build.size(); ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    const std::size_t left = build.size() - next;
    const std::size_t n =
        left <= 256 ? 1
                    : std::min(kGroupEdgeSizes[static_cast<std::size_t>(round) %
                                               std::size(kGroupEdgeSizes)],
                               left - 256);
    std::vector<Rec> batch(build.begin() + static_cast<std::ptrdiff_t>(next),
                           build.begin() +
                               static_cast<std::ptrdiff_t>(next + n));
    for (Rec& r : batch) r.kind = Kind::Erase;
    next += n;
    ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, batch));
    ASSERT_LE(list.height_unsafe(), height);
    height = list.height_unsafe();
  }
  EXPECT_EQ(list.size_unsafe(), 0u);
  EXPECT_EQ(list.height_unsafe(), 1);
}

// The extremes of the key range, next to the INT64_MAX that a null link
// caches: every op kind on them, in mixed batches around the group edges,
// starting from the empty list, so each key is probed while absent, inserted
// next to the end of the list, found, and erased.
TEST_P(SkipListGroupParam, ExtremeKeysInMixedBatchesMatchSetModel) {
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  constexpr Key kPool[] = {kMin, kMin + 1, kMin + 2, -10, 0,
                           10,   kMax - 2, kMax - 1, kMax};
  constexpr Kind kKinds[] = {Kind::Insert,   Kind::MultiInsert,
                             Kind::Contains, Kind::Erase,
                             Kind::Successor, Kind::RangeCount};
  rt::Scheduler sched(GetParam());
  for (const std::size_t n : kGroupEdgeSizes) {
    SCOPED_TRACE(testing::Message() << "batch size " << n);
    Xoshiro256 rng(77 + n);
    BatchedSkipList list(sched, n);
    std::set<Key> model;
    auto draw = [&] { return kPool[rng.next_below(std::size(kPool))]; };
    for (int round = 0; round < 30; ++round) {
      SCOPED_TRACE(testing::Message() << "round " << round);
      std::vector<Rec> recs(n);
      for (std::size_t i = 0; i < n; ++i) {
        Rec& r = recs[i];
        r.kind = kKinds[(i + static_cast<std::size_t>(round)) % 6];
        r.key = draw();
        if (r.kind == Kind::RangeCount) {
          r.key2 = draw();
          if (r.key2 < r.key) std::swap(r.key, r.key2);
        } else if (r.kind == Kind::MultiInsert) {
          r.multi.resize(1 + rng.next_below(3));
          for (Key& k : r.multi) k = draw();
        }
      }
      ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, recs));
    }
  }
}

// Batch sizes around the BOP's two switches: the per-node loops of carve,
// splice, victim marking and unlink run as one leaf up to a grain of 256
// elements, and the batch sort is a serial std::sort up to 512 sorted keys
// (the sort cutoff) and a parallel merge sort above it.  Each batch has
// 511, 512 or 513 sorted keys, of which 255, 256 or 257 are new (insert) or
// hit (erase); the rest repeat a batch key or name a present (insert) or
// absent (erase) key.  Insert keys come as singles and as 100-key
// MultiInsert records, as in fig5_insert.
TEST_P(SkipListGroupParam, BatchesAroundLeafGrainAndSortCutoffMatchSetModel) {
  constexpr std::size_t kSorted[] = {511, 512, 513};
  constexpr std::size_t kChanged[] = {255, 256, 257};
  constexpr Key kPresent = 1024;  // keys -5120, -5110, ..., 5110
  rt::Scheduler sched(GetParam());
  for (const std::size_t sorted : kSorted) {
    for (const std::size_t changed : kChanged) {
      SCOPED_TRACE(testing::Message() << sorted << " sorted keys, " << changed
                                      << " changed");
      Xoshiro256 rng(sorted * 1000 + changed);
      BatchedSkipList list(sched, sorted + changed);
      std::vector<Key> grid(kPresent);
      for (Key i = 0; i < kPresent; ++i) {
        grid[static_cast<std::size_t>(i)] = i * 10 - 5 * kPresent;
        ASSERT_TRUE(list.insert_unsafe(grid[static_cast<std::size_t>(i)]));
      }
      std::set<Key> model(grid.begin(), grid.end());
      auto shuffled = [&](std::vector<Key> v) {
        for (std::size_t i = v.size(); i > 1; --i) {
          std::swap(v[i - 1], v[rng.next_below(i)]);
        }
        return v;
      };
      // Insert: `changed` off-grid keys are new.
      std::vector<Key> fresh = shuffled(grid);
      fresh.resize(changed);
      for (Key& k : fresh) k += 5;
      std::vector<Key> keys = fresh;
      while (keys.size() < sorted) {
        keys.push_back(rng.next_below(2) == 0
                           ? fresh[rng.next_below(changed)]
                           : grid[rng.next_below(grid.size())]);
      }
      keys = shuffled(keys);
      std::vector<Rec> inserts;
      std::size_t next = 0;
      for (; next < sorted / 4; ++next) {
        inserts.push_back(Rec{Kind::Insert, keys[next], 0, {}});
      }
      while (next < sorted) {
        Rec r{Kind::MultiInsert, 0, 0, {}};
        for (; next < sorted && r.multi.size() < 100; ++next) {
          r.multi.push_back(keys[next]);
        }
        inserts.push_back(std::move(r));
      }
      ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, inserts));
      ASSERT_EQ(model.size(), kPresent + changed);
      // Erase: `changed` present keys, old and just inserted, are hit.
      std::vector<Key> victims = shuffled(
          std::vector<Key>(model.begin(), model.end()));
      victims.resize(changed);
      keys = victims;
      while (keys.size() < sorted) {
        keys.push_back(rng.next_below(2) == 0
                           ? victims[rng.next_below(changed)]
                           : grid[rng.next_below(grid.size())] + 1);
      }
      std::vector<Rec> erases;
      for (const Key k : shuffled(keys)) {
        erases.push_back(Rec{Kind::Erase, k, 0, {}});
      }
      ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, erases));
      ASSERT_EQ(model.size(), kPresent);
      for (const Key k : model) ASSERT_TRUE(list.contains_unsafe(k)) << k;
      for (const Key k : victims) ASSERT_FALSE(list.contains_unsafe(k)) << k;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-phase batches.  One search serves every record of a batch, so an
// insert's predecessor and successor rows name the pre-batch list.  When an
// erase of the same batch unlinks one of those nodes below the new node's
// height, the insert must search again after the unlink.  Each test below
// puts a victim at one place an insert's rows can name it, over a grid of
// keys whose random heights make the victim the neighbour at level 0 and,
// for the taller victims and new nodes, at higher levels too.  The batches
// hold one such pattern each (so a singleton-sized batch is checked) and
// then every pattern of a pass at once.
// ---------------------------------------------------------------------------

constexpr std::size_t kGridKeys = 600;  // keys 0, 10, ..., 5990

void fill_grid(BatchedSkipList& list, std::set<Key>& model) {
  for (std::size_t i = 0; i < kGridKeys; ++i) {
    const auto k = static_cast<Key>(i) * 10;
    ASSERT_TRUE(list.insert_unsafe(k));
    model.insert(k);
  }
}

// Runs `make(k)` for grid keys k = 20, 60, 100, ... (every fourth key, so
// the patterns of one pass never touch each other), first one batch per key
// and then, on a fresh grid, all of them in one batch.  Both passes are
// checked against the model after every batch.
template <typename Make>
void run_grid_patterns(unsigned workers, std::uint64_t seed, const Make& make) {
  rt::Scheduler sched(workers);
  {
    BatchedSkipList list(sched, seed);
    std::set<Key> model;
    ASSERT_NO_FATAL_FAILURE(fill_grid(list, model));
    for (Key k = 20; k < static_cast<Key>(kGridKeys) * 10 - 40; k += 40) {
      SCOPED_TRACE(testing::Message() << "key " << k);
      ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, make(k)));
    }
  }
  BatchedSkipList list(sched, seed);
  std::set<Key> model;
  ASSERT_NO_FATAL_FAILURE(fill_grid(list, model));
  std::vector<Rec> all;
  for (Key k = 20; k < static_cast<Key>(kGridKeys) * 10 - 40; k += 40) {
    for (Rec& r : make(k)) all.push_back(std::move(r));
  }
  ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, all));
}

Rec erase_rec(Key k) { return Rec{Kind::Erase, k, 0, {}}; }
Rec insert_rec(Key k) { return Rec{Kind::Insert, k, 0, {}}; }

// Erase k and insert k: both succeed and k stays.  The insert's level-0
// successor is the victim itself.  A read of k sees it, and an erase and an
// insert of an absent neighbour report a miss and a new key.
TEST_P(SkipListGroupParam, EraseAndInsertOfOneKeyInOneBatch) {
  ASSERT_NO_FATAL_FAILURE(run_grid_patterns(GetParam(), 41, [](Key k) {
    return std::vector<Rec>{insert_rec(k), erase_rec(k),
                            Rec{Kind::Contains, k, 0, {}}, erase_rec(k + 5),
                            insert_rec(k + 5)};
  }));
}

// Erase k and insert k + 5: k is the new node's predecessor at level 0, and
// at every level below both heights.
TEST_P(SkipListGroupParam, InsertWhosePredecessorIsAVictim) {
  ASSERT_NO_FATAL_FAILURE(run_grid_patterns(GetParam(), 42, [](Key k) {
    return std::vector<Rec>{erase_rec(k), insert_rec(k + 5)};
  }));
}

// Erase k and insert k - 5: k is the new node's successor at level 0, and
// at every level below both heights.
TEST_P(SkipListGroupParam, InsertWhoseSuccessorIsAVictim) {
  ASSERT_NO_FATAL_FAILURE(run_grid_patterns(GetParam(), 43, [](Key k) {
    return std::vector<Rec>{insert_rec(k - 5), erase_rec(k)};
  }));
}

// Erase k and k + 10, which are chain-adjacent at level 0 (one unlink run),
// and insert k + 5 between them: its predecessor and its successor are both
// victims.  As a MultiInsert payload too.
TEST_P(SkipListGroupParam, InsertBetweenChainAdjacentVictims) {
  ASSERT_NO_FATAL_FAILURE(run_grid_patterns(GetParam(), 44, [](Key k) {
    return std::vector<Rec>{erase_rec(k), erase_rec(k + 10), insert_rec(k + 5),
                            Rec{Kind::MultiInsert, 0, 0, {k + 4, k + 6}}};
  }));
}

// A list whose only node is taller than 4 levels: erasing it empties every
// level, so the unlink lowers the height to 1, and the same batch inserts
// keys on both sides of it (its level-l predecessors and successors at
// every level), enough of them to raise the height again.
TEST_P(SkipListGroupParam, TallVictimLowersTheHeightAsAnInsertRaisesIt) {
  rt::Scheduler sched(GetParam());
  int lists = 0;
  for (std::uint64_t seed = 1; lists < 6; ++seed) {
    BatchedSkipList list(sched, seed);
    std::set<Key> model;
    ASSERT_TRUE(list.insert_unsafe(5000));
    model.insert(5000);
    if (list.height_unsafe() <= 4) continue;
    ++lists;
    SCOPED_TRACE(testing::Message() << "seed " << seed << " height "
                                    << list.height_unsafe());
    std::vector<Rec> recs{erase_rec(5000), insert_rec(4995), insert_rec(5005)};
    for (Key k = 0; k < 200; ++k) recs.push_back(insert_rec(k * 50 + 1));
    ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, recs));
    ASSERT_GT(list.height_unsafe(), 1);
    // And back: erase everything the batch added while re-inserting the
    // old key.
    std::vector<Rec> back{insert_rec(5000)};
    for (const Key k : model) back.push_back(erase_rec(k));
    ASSERT_NO_FATAL_FAILURE(run_and_check(sched, list, model, back));
    ASSERT_EQ(model, std::set<Key>{5000});
  }
}

INSTANTIATE_TEST_SUITE_P(Workers, SkipListGroupParam,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace batcher::ds
