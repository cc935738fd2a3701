// Sort-merge BOP property suite (`ctest -R bop`).
//
// The sort-merge rewrites of the skip list, weight-balanced tree, and hash
// map reorder each batch internally (sort by key / bucket, scan-pack groups,
// parallel combine), which is exactly where same-key semantics can silently
// break: two inserts of one key racing for "first wins", an erase and a
// contains straddling the phase boundary, update deltas folding in the wrong
// order.  This suite pins those semantics three ways:
//
//   1. 500-seed perturbed-tape sweeps per structure: randomly generated
//      batches over a deliberately tiny key universe (so nearly every batch
//      carries same-key collisions) driven through run_batch and checked
//      op-for-op against a sequential phase-aware reference model.  (The
//      sweeps' names predate the removal of the second apply path; they are
//      kept so the test IDs stay stable.)
//   2. Blocking-API rounds under the schedule perturber (when BATCHER_AUDIT
//      hooks are compiled in): batch partitions are whatever the real launch
//      protocol produces, so each round asserts only partition-insensitive
//      aggregates — per-key success counts and delta sums.
//   3. Large direct-driven batches (including the paper's MultiInsert trick)
//      that push every size bucket the span profile measures.
//
// The reference semantics (documented in each structure's header): reads
// observe the pre-batch state; then erases apply in working-set order; then
// inserts apply in working-set order ("first wins" on duplicates).  The hash
// map is stronger: full sequential replay in working-set order, so a Get
// observes an earlier same-batch Put.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "audit/audit_session.hpp"
#include "audit/schedule_perturber.hpp"
#include "batcher/op_record.hpp"
#include "ds/batch_prep.hpp"
#include "ds/batched_hashmap.hpp"
#include "ds/batched_skiplist.hpp"
#include "ds/batched_wbtree.hpp"
#include "parallel/sort.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace batcher {
namespace {

using ds::BatchedHashMap;
using ds::BatchedSkipList;
using ds::BatchedWBTree;
using Key = std::int64_t;

constexpr std::uint64_t kSweepSeeds = 500;
constexpr int kRoundsPerSeed = 6;

// Keys are drawn from {0, 10, 20, ..., 110}: 12 values, so a 30-op batch
// averages multiple ops per key, and the gaps make Successor / RangeCount
// probes distinguish "key present" from "neighbour present".
constexpr std::int64_t kUniverse = 12;

Key draw_key(Xoshiro256& rng) {
  return static_cast<Key>(rng.next_below(kUniverse)) * 10;
}

// ---------------------------------------------------------------------------
// 1a. Skip list: mixed tape vs phase-aware model.
// ---------------------------------------------------------------------------

struct SkipSpec {
  BatchedSkipList::Kind kind = BatchedSkipList::Kind::Insert;
  Key key = 0;
  Key key2 = 0;
  std::vector<Key> multi;  // MultiInsert payload
};

struct SkipExpected {
  bool found = false;
  std::int64_t count = 0;
  std::optional<Key> out_key;
};

std::vector<SkipSpec> random_skip_batch(Xoshiro256& rng, std::size_t n) {
  std::vector<SkipSpec> specs(n);
  for (auto& s : specs) {
    const std::uint64_t pick = rng.next_below(12);
    s.key = draw_key(rng);
    if (pick < 4) {
      s.kind = BatchedSkipList::Kind::Insert;
    } else if (pick < 7) {
      s.kind = BatchedSkipList::Kind::Erase;
    } else if (pick < 9) {
      s.kind = BatchedSkipList::Kind::Contains;
    } else if (pick < 10) {
      s.kind = BatchedSkipList::Kind::Successor;
      s.key += static_cast<Key>(rng.next_below(15)) - 7;  // off-grid probes
    } else if (pick < 11) {
      s.kind = BatchedSkipList::Kind::RangeCount;
      s.key2 = s.key + static_cast<Key>(rng.next_below(60));
    } else {
      s.kind = BatchedSkipList::Kind::MultiInsert;
      s.multi.resize(1 + rng.next_below(4));
      for (auto& k : s.multi) k = draw_key(rng);
    }
  }
  return specs;
}

// Applies one batch to the model set and returns per-op expectations
// (reads on the pre state, then erases, then inserts, each in batch order).
std::vector<SkipExpected> model_skip_batch(std::set<Key>& s,
                                           const std::vector<SkipSpec>& specs) {
  std::vector<SkipExpected> exp(specs.size());
  const std::set<Key> pre = s;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const SkipSpec& sp = specs[i];
    switch (sp.kind) {
      case BatchedSkipList::Kind::Contains:
        exp[i].found = pre.count(sp.key) > 0;
        break;
      case BatchedSkipList::Kind::Successor: {
        auto it = pre.lower_bound(sp.key);
        exp[i].out_key =
            it != pre.end() ? std::optional<Key>(*it) : std::nullopt;
        break;
      }
      case BatchedSkipList::Kind::RangeCount: {
        std::int64_t c = 0;
        for (auto it = pre.lower_bound(sp.key);
             it != pre.end() && *it <= sp.key2; ++it) {
          ++c;
        }
        exp[i].count = c;
        break;
      }
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedSkipList::Kind::Erase) {
      exp[i].found = s.erase(specs[i].key) > 0;
    }
  }
  // Insert phase.  The gather numbers every single-Insert record before any
  // MultiInsert payload key, so `found` goes to the first single Insert of a
  // key (in batch order) — a same-batch MultiInsert of that key never steals
  // the attribution, though membership is the union either way.
  const std::set<Key> pre_insert = s;
  std::set<Key> claimed;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedSkipList::Kind::Insert) {
      const bool first = claimed.insert(specs[i].key).second;
      exp[i].found = first && pre_insert.count(specs[i].key) == 0;
      s.insert(specs[i].key);
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedSkipList::Kind::MultiInsert) {
      for (Key k : specs[i].multi) s.insert(k);
    }
  }
  return exp;
}

void run_skip_batch(BatchedSkipList& list, const std::vector<SkipSpec>& specs,
                    const std::vector<SkipExpected>& exp, std::uint64_t seed,
                    int round) {
  std::vector<BatchedSkipList::Op> ops(specs.size());
  std::vector<OpRecordBase*> ptrs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops[i].kind = specs[i].kind;
    ops[i].key = specs[i].key;
    ops[i].key2 = specs[i].key2;
    ops[i].keys = specs[i].multi.data();
    ops[i].num_keys = specs[i].multi.size();
    ptrs[i] = &ops[i];
  }
  list.run_batch(ptrs.data(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    switch (specs[i].kind) {
      case BatchedSkipList::Kind::MultiInsert:
        break;  // no per-op result contract
      case BatchedSkipList::Kind::Successor:
        ASSERT_EQ(ops[i].out_key, exp[i].out_key)
            << "seed " << seed << " round " << round << " op " << i;
        break;
      case BatchedSkipList::Kind::RangeCount:
        ASSERT_EQ(ops[i].count, exp[i].count)
            << "seed " << seed << " round " << round << " op " << i;
        break;
      default:
        ASSERT_EQ(ops[i].found, exp[i].found)
            << "seed " << seed << " round " << round << " op " << i;
        break;
    }
  }
}

// Phases (reads, erase, insert) that a batch holds records of: the BOP runs
// one search for all of them, so the sweep must mix them.
int skip_batch_phases(const std::vector<SkipSpec>& specs) {
  bool read = false, erase = false, insert = false;
  for (const SkipSpec& s : specs) {
    switch (s.kind) {
      case BatchedSkipList::Kind::Erase: erase = true; break;
      case BatchedSkipList::Kind::Insert:
      case BatchedSkipList::Kind::MultiInsert: insert = true; break;
      default: read = true; break;
    }
  }
  return int{read} + int{erase} + int{insert};
}

TEST(BopSameKey, SkipListMixedTapeMatchesModelUnderBothPolicies) {
  rt::Scheduler sched(2);
  std::uint64_t batches_by_phases[4] = {};
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    Xoshiro256 rng(seed * 2 + 1);
    BatchedSkipList list(sched, seed + 1);
    std::set<Key> model;
    sched.run([&] {
      for (int round = 0; round < kRoundsPerSeed; ++round) {
        const std::size_t n = 1 + rng.next_below(32);
        const auto specs = random_skip_batch(rng, n);
        ++batches_by_phases[skip_batch_phases(specs)];
        const auto exp = model_skip_batch(model, specs);
        ASSERT_NO_FATAL_FAILURE(run_skip_batch(list, specs, exp, seed, round));
      }
    });
    ASSERT_TRUE(list.check_invariants()) << "seed " << seed;
    ASSERT_EQ(list.size_unsafe(), model.size()) << "seed " << seed;
    for (std::int64_t k = 0; k < kUniverse; ++k) {
      ASSERT_EQ(list.contains_unsafe(k * 10), model.count(k * 10) > 0)
          << "seed " << seed << " key " << k * 10;
    }
  }
  for (int phases = 1; phases <= 3; ++phases) {
    EXPECT_GT(batches_by_phases[phases], 0u)
        << "no batch with " << phases << " phase(s)";
  }
}

// ---------------------------------------------------------------------------
// 1b. Weight-balanced tree: mixed tape vs phase-aware model.
// ---------------------------------------------------------------------------

struct TreeSpec {
  BatchedWBTree::Kind kind = BatchedWBTree::Kind::Insert;
  Key key = 0;
  Key key2 = 0;
  std::int64_t index = 0;  // Select input
};

struct TreeExpected {
  bool found = false;
  std::int64_t count = 0;
  std::optional<Key> out_key;
};

std::vector<TreeSpec> random_tree_batch(Xoshiro256& rng, std::size_t n) {
  std::vector<TreeSpec> specs(n);
  for (auto& s : specs) {
    const std::uint64_t pick = rng.next_below(12);
    s.key = draw_key(rng);
    if (pick < 4) {
      s.kind = BatchedWBTree::Kind::Insert;
    } else if (pick < 7) {
      s.kind = BatchedWBTree::Kind::Erase;
    } else if (pick < 9) {
      s.kind = BatchedWBTree::Kind::Contains;
    } else if (pick < 10) {
      s.kind = BatchedWBTree::Kind::Rank;
      s.key += static_cast<Key>(rng.next_below(15)) - 7;
    } else if (pick < 11) {
      s.kind = BatchedWBTree::Kind::Select;
      s.index = static_cast<std::int64_t>(rng.next_below(kUniverse + 2));
    } else {
      s.kind = BatchedWBTree::Kind::RangeCount;
      s.key2 = s.key + static_cast<Key>(rng.next_below(60));
    }
  }
  return specs;
}

std::vector<TreeExpected> model_tree_batch(std::set<Key>& s,
                                           const std::vector<TreeSpec>& specs) {
  std::vector<TreeExpected> exp(specs.size());
  const std::set<Key> pre = s;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TreeSpec& sp = specs[i];
    switch (sp.kind) {
      case BatchedWBTree::Kind::Contains:
        exp[i].found = pre.count(sp.key) > 0;
        break;
      case BatchedWBTree::Kind::Rank: {
        std::int64_t c = 0;
        for (Key k : pre) {
          if (k < sp.key) ++c;
        }
        exp[i].count = c;
        break;
      }
      case BatchedWBTree::Kind::Select: {
        if (sp.index >= 0 &&
            sp.index < static_cast<std::int64_t>(pre.size())) {
          auto it = pre.begin();
          std::advance(it, sp.index);
          exp[i].out_key = *it;
        }
        break;
      }
      case BatchedWBTree::Kind::RangeCount: {
        std::int64_t c = 0;
        for (auto it = pre.lower_bound(sp.key);
             it != pre.end() && *it <= sp.key2; ++it) {
          ++c;
        }
        exp[i].count = c;
        break;
      }
      default:
        break;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedWBTree::Kind::Erase) {
      exp[i].found = s.erase(specs[i].key) > 0;
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].kind == BatchedWBTree::Kind::Insert) {
      exp[i].found = s.insert(specs[i].key).second;
    }
  }
  return exp;
}

void run_tree_batch(BatchedWBTree& tree, const std::vector<TreeSpec>& specs,
                    const std::vector<TreeExpected>& exp, std::uint64_t seed,
                    int round) {
  std::vector<BatchedWBTree::Op> ops(specs.size());
  std::vector<OpRecordBase*> ptrs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops[i].kind = specs[i].kind;
    ops[i].key = specs[i].key;
    ops[i].key2 = specs[i].key2;
    if (specs[i].kind == BatchedWBTree::Kind::Select) {
      ops[i].count = specs[i].index;
    }
    ptrs[i] = &ops[i];
  }
  tree.run_batch(ptrs.data(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    switch (specs[i].kind) {
      case BatchedWBTree::Kind::Select:
        ASSERT_EQ(ops[i].out_key, exp[i].out_key)
            << "seed " << seed << " round " << round << " op " << i;
        break;
      case BatchedWBTree::Kind::Rank:
      case BatchedWBTree::Kind::RangeCount:
        ASSERT_EQ(ops[i].count, exp[i].count)
            << "seed " << seed << " round " << round << " op " << i;
        break;
      default:
        ASSERT_EQ(ops[i].found, exp[i].found)
            << "seed " << seed << " round " << round << " op " << i;
        break;
    }
  }
}

TEST(BopSameKey, WBTreeMixedTapeMatchesModelUnderBothPolicies) {
  rt::Scheduler sched(2);
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    Xoshiro256 rng(seed * 2 + 2);
    BatchedWBTree tree(sched);
    std::set<Key> model;
    sched.run([&] {
      for (int round = 0; round < kRoundsPerSeed; ++round) {
        const std::size_t n = 1 + rng.next_below(32);
        const auto specs = random_tree_batch(rng, n);
        const auto exp = model_tree_batch(model, specs);
        ASSERT_NO_FATAL_FAILURE(run_tree_batch(tree, specs, exp, seed, round));
      }
    });
    ASSERT_TRUE(tree.check_invariants()) << "seed " << seed;
    ASSERT_EQ(tree.size_unsafe(), model.size()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// 1c. Hash map: mixed tape vs sequential working-set replay.
// ---------------------------------------------------------------------------

struct MapSpec {
  BatchedHashMap::Kind kind = BatchedHashMap::Kind::Put;
  Key key = 0;
  std::int64_t value = 0;
};

struct MapExpected {
  bool found = false;
  std::optional<std::int64_t> out;
};

std::vector<MapSpec> random_map_batch(Xoshiro256& rng, std::size_t n) {
  std::vector<MapSpec> specs(n);
  for (auto& s : specs) {
    const std::uint64_t pick = rng.next_below(8);
    s.key = draw_key(rng);
    s.value = static_cast<std::int64_t>(rng.next_below(1000));
    if (pick < 2) {
      s.kind = BatchedHashMap::Kind::Put;
    } else if (pick < 4) {
      s.kind = BatchedHashMap::Kind::Get;
    } else if (pick < 6) {
      s.kind = BatchedHashMap::Kind::Update;
    } else {
      s.kind = BatchedHashMap::Kind::Erase;
    }
  }
  return specs;
}

// The hash map's documented semantics are full sequential replay in
// working-set order: a Get observes an earlier same-batch Put, and Update
// deltas fold left-to-right.
std::vector<MapExpected> model_map_batch(std::map<Key, std::int64_t>& m,
                                         const std::vector<MapSpec>& specs) {
  std::vector<MapExpected> exp(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const MapSpec& sp = specs[i];
    switch (sp.kind) {
      case BatchedHashMap::Kind::Put:
        m[sp.key] = sp.value;
        break;
      case BatchedHashMap::Kind::Get: {
        auto it = m.find(sp.key);
        exp[i].out = it != m.end() ? std::optional<std::int64_t>(it->second)
                                   : std::nullopt;
        break;
      }
      case BatchedHashMap::Kind::Update:
        m[sp.key] += sp.value;
        exp[i].out = m[sp.key];
        break;
      case BatchedHashMap::Kind::Erase:
        exp[i].found = m.erase(sp.key) > 0;
        break;
    }
  }
  return exp;
}

void run_map_batch(BatchedHashMap& map, const std::vector<MapSpec>& specs,
                   const std::vector<MapExpected>& exp, std::uint64_t seed,
                   int round) {
  std::vector<BatchedHashMap::Op> ops(specs.size());
  std::vector<OpRecordBase*> ptrs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ops[i].kind = specs[i].kind;
    ops[i].key = specs[i].key;
    ops[i].value = specs[i].value;
    ptrs[i] = &ops[i];
  }
  map.run_batch(ptrs.data(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    switch (specs[i].kind) {
      case BatchedHashMap::Kind::Get:
      case BatchedHashMap::Kind::Update:
        ASSERT_EQ(ops[i].out, exp[i].out)
            << "seed " << seed << " round " << round << " op " << i;
        break;
      case BatchedHashMap::Kind::Erase:
        ASSERT_EQ(ops[i].found, exp[i].found)
            << "seed " << seed << " round " << round << " op " << i;
        break;
      default:
        break;
    }
  }
}

TEST(BopSameKey, HashMapMixedTapeMatchesWorkingSetReplayUnderBothPolicies) {
  rt::Scheduler sched(2);
  for (std::uint64_t seed = 0; seed < kSweepSeeds; ++seed) {
    Xoshiro256 rng(seed * 2 + 3);
    BatchedHashMap map(sched);
    std::map<Key, std::int64_t> model;
    sched.run([&] {
      for (int round = 0; round < kRoundsPerSeed; ++round) {
        const std::size_t n = 1 + rng.next_below(32);
        const auto specs = random_map_batch(rng, n);
        const auto exp = model_map_batch(model, specs);
        ASSERT_NO_FATAL_FAILURE(run_map_batch(map, specs, exp, seed, round));
      }
    });
    ASSERT_TRUE(map.check_invariants()) << "seed " << seed;
    ASSERT_EQ(map.size_unsafe(), model.size()) << "seed " << seed;
    for (const auto& [k, v] : model) {
      ASSERT_EQ(map.get_unsafe(k), std::optional<std::int64_t>(v))
          << "seed " << seed << " key " << k;
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Blocking API under the schedule perturber: partition-insensitive
//    same-key aggregates.  The launch protocol decides the batch partition,
//    so each round asserts only quantities every partition must produce.
// ---------------------------------------------------------------------------

class PerturbedScope {
 public:
  explicit PerturbedScope(std::uint64_t seed) {
    if (rt::hooks::kEnabled) {
      audit::SchedulePerturber::Options opts;
      opts.yield_one_in = 96;
      opts.pause_one_in = 8;
      opts.max_pause_spins = 32;
      session_ = std::make_unique<audit::AuditSession>(4, seed, opts);
      session_->install();
    }
  }
  ~PerturbedScope() {
    if (session_ != nullptr) {
      EXPECT_TRUE(session_->auditor().clean()) << session_->auditor().report();
      session_->uninstall();
    }
  }

 private:
  std::unique_ptr<audit::AuditSession> session_;
};

TEST(BopBlockingApi, PerturbedSameKeyRoundsKeepAggregateSemantics) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    PerturbedScope perturbed(seed + 100);
    Xoshiro256 rng(seed + 100);
    rt::Scheduler sched(4);
    BatchedSkipList list(sched, seed + 1);
    std::set<Key> member;  // pre-round membership
    sched.run([&] {
      for (int round = 0; round < 8; ++round) {
        // Each key is touched by ops of a single kind per round, several
        // strands each, so per-key success counts are partition-invariant:
        // exactly one insert per absent key wins, exactly one erase per
        // present key wins, and contains always answers pre-round
        // membership (no other op touches that key this round).
        struct RoundPlan {
          Key key;
          int kind;  // 0=insert 1=erase 2=contains
        };
        std::vector<RoundPlan> plan(static_cast<std::size_t>(kUniverse));
        for (std::int64_t k = 0; k < kUniverse; ++k) {
          plan[static_cast<std::size_t>(k)] =
              RoundPlan{k * 10, static_cast<int>(rng.next_below(3))};
        }
        const std::int64_t per_key = 3;
        std::vector<std::atomic<std::int64_t>> hits(
            static_cast<std::size_t>(kUniverse));
        for (auto& h : hits) h.store(0);
        rt::parallel_for(
            0, kUniverse * per_key,
            [&](std::int64_t i) {
              const auto ki = static_cast<std::size_t>(i / per_key);
              const Key key = plan[ki].key;
              bool hit = false;
              switch (plan[ki].kind) {
                case 0: hit = list.insert(key); break;
                case 1: hit = list.erase(key); break;
                default: hit = list.contains(key); break;
              }
              if (hit) hits[ki].fetch_add(1, std::memory_order_relaxed);
            },
            /*grain=*/1);
        for (std::int64_t k = 0; k < kUniverse; ++k) {
          const auto ki = static_cast<std::size_t>(k);
          const bool was_in = member.count(k * 10) > 0;
          std::int64_t expect_hits = 0;
          switch (plan[ki].kind) {
            case 0:  // exactly one of the duplicate inserts wins
              expect_hits = was_in ? 0 : 1;
              member.insert(k * 10);
              break;
            case 1:  // exactly one of the duplicate erases wins
              expect_hits = was_in ? 1 : 0;
              member.erase(k * 10);
              break;
            default:  // every contains sees pre-round membership
              expect_hits = was_in ? per_key : 0;
              break;
          }
          ASSERT_EQ(hits[ki].load(), expect_hits)
              << "seed " << seed << " round " << round << " key " << k * 10
              << " kind " << plan[ki].kind;
        }
      }
    });
    ASSERT_TRUE(list.check_invariants()) << "seed " << seed;
    ASSERT_EQ(list.size_unsafe(), member.size()) << "seed " << seed;
  }
}

TEST(BopBlockingApi, PerturbedUpdateDeltasFoldExactly) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    PerturbedScope perturbed(seed + 200);
    rt::Scheduler sched(4);
    BatchedHashMap map(sched);
    const std::int64_t per_key = 25;
    sched.run([&] {
      // All strands update the same few keys with delta 1: whatever the
      // batch partition, the returned post-values for one key must be a
      // permutation of {1, ..., per_key} and the final value per_key.
      std::vector<std::atomic<std::int64_t>> sum(
          static_cast<std::size_t>(kUniverse));
      for (auto& s : sum) s.store(0);
      rt::parallel_for(
          0, kUniverse * per_key,
          [&](std::int64_t i) {
            const std::int64_t k = i / per_key;
            const std::int64_t post = map.update_add(k * 10, 1);
            sum[static_cast<std::size_t>(k)].fetch_add(
                post, std::memory_order_relaxed);
          },
          /*grain=*/1);
      for (std::int64_t k = 0; k < kUniverse; ++k) {
        ASSERT_EQ(sum[static_cast<std::size_t>(k)].load(),
                  per_key * (per_key + 1) / 2)
            << "seed " << seed << " key " << k * 10;
      }
    });
    ASSERT_TRUE(map.check_invariants()) << "seed " << seed;
    for (std::int64_t k = 0; k < kUniverse; ++k) {
      ASSERT_EQ(map.get_unsafe(k * 10), std::optional<std::int64_t>(per_key))
          << "seed " << seed << " key " << k * 10;
    }
  }
}

// ---------------------------------------------------------------------------
// 3. Large direct-driven batches: the sizes the span profile measures.
// ---------------------------------------------------------------------------

TEST(BopLargeBatch, LargeDirectBatchesAcrossAllSizeBuckets) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched, 99);
  BatchedWBTree tree(sched);
  std::set<Key> model;
  Xoshiro256 rng(99);
  sched.run([&] {
    for (std::size_t n : {1u, 4u, 16u, 64u, 1024u}) {
      std::vector<Key> keys(n);
      for (auto& k : keys) {
        k = static_cast<Key>(rng.next_below(4 * n));  // ~25% duplicates
      }
      std::vector<BatchedSkipList::Op> lops(n);
      std::vector<BatchedWBTree::Op> tops(n);
      std::vector<OpRecordBase*> lptr(n), tptr(n);
      for (std::size_t i = 0; i < n; ++i) {
        lops[i].kind = BatchedSkipList::Kind::Insert;
        lops[i].key = keys[i];
        tops[i].kind = BatchedWBTree::Kind::Insert;
        tops[i].key = keys[i];
        lptr[i] = &lops[i];
        tptr[i] = &tops[i];
      }
      list.run_batch(lptr.data(), n);
      tree.run_batch(tptr.data(), n);
      for (Key k : keys) model.insert(k);
      ASSERT_EQ(list.size_unsafe(), model.size()) << "after insert n=" << n;
      ASSERT_EQ(tree.size_unsafe(), model.size()) << "after insert n=" << n;
      // Erase half of this round's keys in the same large-batch style.
      const std::size_t half = (n + 1) / 2;
      for (std::size_t i = 0; i < half; ++i) {
        lops[i].kind = BatchedSkipList::Kind::Erase;
        lops[i].found = false;
        tops[i].kind = BatchedWBTree::Kind::Erase;
        tops[i].found = false;
      }
      list.run_batch(lptr.data(), half);
      tree.run_batch(tptr.data(), half);
      for (std::size_t i = 0; i < half; ++i) model.erase(keys[i]);
      ASSERT_EQ(list.size_unsafe(), model.size()) << "after erase n=" << n;
      ASSERT_EQ(tree.size_unsafe(), model.size()) << "after erase n=" << n;
    }
  });
  ASSERT_TRUE(list.check_invariants());
  ASSERT_TRUE(tree.check_invariants());
  for (Key k : model) {
    ASSERT_TRUE(list.contains_unsafe(k)) << "key " << k;
    ASSERT_TRUE(tree.contains_unsafe(k)) << "key " << k;
  }
}

TEST(BopLargeBatch, MultiInsertLargeBatchMatchesSet) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched, 7);
  Xoshiro256 rng(7);
  // The paper's BATCHIFY trick: each record carries 100 keys; one batch of
  // 16 records therefore splices 1600 keys (gt_64 bucket) in one BOP.
  constexpr std::size_t kRecords = 16;
  constexpr std::size_t kPerRecord = 100;
  std::vector<std::vector<Key>> payload(kRecords);
  std::set<Key> model;
  for (auto& p : payload) {
    p.resize(kPerRecord);
    for (auto& k : p) {
      k = static_cast<Key>(rng.next_below(800));  // heavy duplication
      model.insert(k);
    }
  }
  std::vector<BatchedSkipList::Op> ops(kRecords);
  std::vector<OpRecordBase*> ptrs(kRecords);
  for (std::size_t i = 0; i < kRecords; ++i) {
    ops[i].kind = BatchedSkipList::Kind::MultiInsert;
    ops[i].keys = payload[i].data();
    ops[i].num_keys = payload[i].size();
    ptrs[i] = &ops[i];
  }
  sched.run([&] { list.run_batch(ptrs.data(), kRecords); });
  ASSERT_TRUE(list.check_invariants());
  ASSERT_EQ(list.size_unsafe(), model.size());
  for (Key k : model) ASSERT_TRUE(list.contains_unsafe(k)) << "key " << k;
}

// ---------------------------------------------------------------------------
// Part 4: deterministic s(n) evidence.  The bench-side span_growth gate
// measures wall-clock and therefore rides OS jitter; span_tasks is a
// schedule-invariant dag property (the ledger folds strand segments max-wise
// at joins), so the sublinearity of the sort-merge BOPs can be pinned
// exactly, in tier-1, on any machine.
// ---------------------------------------------------------------------------

std::uint64_t measure_bop_span_tasks(
    const std::function<void(rt::Scheduler&)>& body) {
  trace::TraceSession::Options opt;
  opt.ring_capacity = std::size_t{1} << 14;
  trace::TraceSession session(opt);
  rt::StatsSnapshot stats;
  {
    rt::Scheduler sched(2);
    sched.export_final_stats(&stats);
    body(sched);
  }
  session.stop();
  EXPECT_EQ(stats.runs_measured, 1u);
  return stats.span_tasks;
}

std::uint64_t skiplist_insert_span_tasks(std::size_t n) {
  return measure_bop_span_tasks([&](rt::Scheduler& sched) {
    BatchedSkipList list(sched, 1234);
    Xoshiro256 rng(5);
    for (int i = 0; i < 8192; ++i) {
      list.insert_unsafe(static_cast<Key>(rng.next()));
    }
    std::vector<BatchedSkipList::Op> ops(n);
    std::vector<OpRecordBase*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      ops[i].kind = BatchedSkipList::Kind::Insert;
      ops[i].key = static_cast<Key>(rng.next());
      ptrs[i] = &ops[i];
    }
    sched.run([&] { list.run_batch(ptrs.data(), n); });
  });
}

std::uint64_t wbtree_insert_span_tasks(std::size_t n) {
  return measure_bop_span_tasks([&](rt::Scheduler& sched) {
    BatchedWBTree tree(sched);
    Xoshiro256 rng(5);
    for (int i = 0; i < 8192; ++i) {
      tree.insert_unsafe(static_cast<Key>(rng.next()));
    }
    std::vector<BatchedWBTree::Op> ops(n);
    std::vector<OpRecordBase*> ptrs(n);
    for (std::size_t i = 0; i < n; ++i) {
      ops[i].kind = BatchedWBTree::Kind::Insert;
      ops[i].key = static_cast<Key>(rng.next());
      ptrs[i] = &ops[i];
    }
    sched.run([&] { tree.run_batch(ptrs.data(), n); });
  });
}

TEST(BopSpanTasks, SkipListSortMergeBatchSpanIsSublinear) {
  const std::uint64_t span_small = skiplist_insert_span_tasks(512);
  const std::uint64_t span_large = skiplist_insert_span_tasks(4096);
  EXPECT_GT(span_small, 0u);
  // 8x the batch must cost far less than 8x the task-count span (polylog
  // growth), and the large batch's span must be way below its size (a
  // serial splice would be one task doing all n keys).
  EXPECT_LT(span_large, 4 * span_small)
      << "span_small=" << span_small << " span_large=" << span_large;
  EXPECT_LT(span_large, 4096u / 8u)
      << "span_large=" << span_large << " is not sublinear in the batch";
}

// Tasks executed by 16 singleton batches of `kind`, each in its own run,
// against a list of 8192 keys; every batch targets a present key.
std::uint64_t skiplist_singleton_batch_tasks(BatchedSkipList::Kind kind) {
  rt::StatsSnapshot stats;
  {
    rt::Scheduler sched(2);
    sched.export_final_stats(&stats);
    BatchedSkipList list(sched, 1234);
    Xoshiro256 rng(5);
    std::vector<Key> keys;
    while (keys.size() < 8192) {
      const auto k = static_cast<Key>(rng.next());
      if (list.insert_unsafe(k)) keys.push_back(k);
    }
    EXPECT_GE(list.height_unsafe(), 12);
    for (std::size_t b = 0; b < 16; ++b) {
      BatchedSkipList::Op op;
      op.kind = kind;
      op.key = keys[b * 512];
      OpRecordBase* ptr = &op;
      sched.run([&] { list.run_batch(&ptr, 1); });
      EXPECT_TRUE(op.found) << "batch " << b;
    }
  }
  return stats.tasks_executed;
}

// A singleton erase unlinks one node of height h (2 on average), so it must
// fork over the h levels that node occupies, not over all of the list's
// levels.  Measured against the same runs of singleton contains batches,
// which fork nothing, the 16 erases may add a few dozen tasks; forking over
// every level adds height - 1 >= 11 per erase.
TEST(BopSpanTasks, SkipListSingletonEraseForksOnlyTheVictimsLevels) {
  const std::uint64_t reads =
      skiplist_singleton_batch_tasks(BatchedSkipList::Kind::Contains);
  const std::uint64_t erases =
      skiplist_singleton_batch_tasks(BatchedSkipList::Kind::Erase);
  ASSERT_GE(erases, reads);
  EXPECT_LT(erases - reads, 64u) << "reads=" << reads << " erases=" << erases;
}

TEST(BopSpanTasks, WBTreeSortMergeBatchSpanIsSublinear) {
  const std::uint64_t span_small = wbtree_insert_span_tasks(512);
  const std::uint64_t span_large = wbtree_insert_span_tasks(4096);
  EXPECT_GT(span_small, 0u);
  EXPECT_LT(span_large, 4 * span_small)
      << "span_small=" << span_small << " span_large=" << span_large;
  EXPECT_LT(span_large, 4096u / 8u)
      << "span_large=" << span_large << " is not sublinear in the batch";
}

// ---------------------------------------------------------------------------
// Part 5: the shared batch sort.  prep::sort_tagged runs std::sort in place
// up to the sort cutoff (512) and par::parallel_sort above it; both must
// give exactly std::sort's (key, ws) order.  The sizes run from empty and
// single-record batches through fig5_insert's ~150 to just past the cutoff
// and a multi-leaf parallel sort.  Records arrive in arbitrary ws order: no
// caller-side ordering is assumed.
// ---------------------------------------------------------------------------

using TaggedKey = ds::prep::Tagged<Key>;

// n records in shuffled order: runs of ~3 records share a ws (a
// MultiInsert record's payload), so duplicates fall both within one ws and
// across several.
std::vector<TaggedKey> tagged_batch(std::size_t n, int dist,
                                    Xoshiro256& rng) {
  constexpr Key kMin = std::numeric_limits<Key>::min();
  constexpr Key kMax = std::numeric_limits<Key>::max();
  constexpr Key kExtremes[] = {kMin, kMin + 1, -1, 0, 1, kMax - 1, kMax};
  std::vector<TaggedKey> keys(n);
  std::uint32_t ws = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0 && rng.next_below(3) == 0) ++ws;
    Key k = 0;
    switch (dist) {
      case 0:  // any 64-bit key, half of them negative
        k = static_cast<Key>(rng.next());
        break;
      case 1:  // a narrow signed range: duplicates within and across ws
        k = static_cast<Key>(rng.next_below(41)) - 20;
        break;
      case 2:  // only the top byte differs
        k = static_cast<Key>(rng.next_below(256) << 56);
        break;
      case 3:  // the extremes, INT64_MIN and INT64_MAX included
        k = kExtremes[rng.next_below(std::size(kExtremes))];
        break;
      case 4:  // only the top bit of each byte varies, the sign bit included
        k = static_cast<Key>(rng.next() & 0x8080808080808080ULL);
        break;
      default:  // every key equal: ordered by ws alone
        k = -42;
        break;
    }
    keys[i] = TaggedKey{k, ws};
  }
  for (std::size_t i = n; i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.next_below(i)]);
  }
  return keys;
}

// Sorts an n-record batch of every distribution and compares it with
// std::sort's order.
void expect_sorted_like_std(rt::Scheduler& sched, std::size_t n,
                            Xoshiro256& rng) {
  for (int dist = 0; dist < 6; ++dist) {
    std::vector<TaggedKey> keys = tagged_batch(n, dist, rng);
    std::vector<TaggedKey> expected = keys;
    std::sort(expected.begin(), expected.end());
    sched.run([&] { ds::prep::sort_tagged(keys); });
    ASSERT_EQ(keys.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(keys[i].key, expected[i].key)
          << "n " << n << " dist " << dist << " at " << i;
      ASSERT_EQ(keys[i].ws, expected[i].ws)
          << "n " << n << " dist " << dist << " at " << i;
    }
  }
}

TEST(SortTagged, MatchesStdSortAcrossRegimes) {
  constexpr std::size_t kSizes[] = {0,   1,   2,   31,  32,  33,  255,
                                    256, 257, 511, 512, 513, 4096};
  rt::Scheduler sched(2);
  Xoshiro256 rng(31);
  for (const std::size_t n : kSizes) {
    ASSERT_NO_FATAL_FAILURE(expect_sorted_like_std(sched, n, rng));
  }
  // Lowering the cutoff (SortCutoffGuard, the knob that exercises the
  // recursive span at batch sizes) sends small batches through
  // parallel_sort's recursion too.
  par::SortCutoffGuard guard(8);
  for (const std::size_t n : {9, 33, 155}) {
    ASSERT_NO_FATAL_FAILURE(expect_sorted_like_std(sched, n, rng));
  }
}

}  // namespace
}  // namespace batcher
