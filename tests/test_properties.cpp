// Property-based tests: random operation sequences, random batch partitions,
// checked against phase-aware reference models.  Driving run_batch directly
// makes the checks deterministic — any batch partition the real scheduler
// could produce is a partition these tests draw at random.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "ds/batched_counter.hpp"
#include "ds/batched_hashmap.hpp"
#include "ds/batched_om.hpp"
#include "ds/batched_pq.hpp"
#include "ds/batched_queue.hpp"
#include "ds/batched_skiplist.hpp"
#include "ds/batched_stack.hpp"
#include "ds/batched_wbtree.hpp"
#include "audit/audit_session.hpp"
#include "audit/schedule_perturber.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"

namespace batcher {
namespace {

class PropertySeed : public ::testing::TestWithParam<std::uint64_t> {};

// --- Batched set structures (skip list and weight-balanced tree) -----------
//
// Phase-aware reference: contains sees the pre-batch set, then erases apply
// (first occurrence of each key wins), then inserts (first occurrence wins).

template <typename Structure>
void run_set_property(std::uint64_t seed) {
  rt::Scheduler sched(4);
  Structure s(sched);
  using Op = typename Structure::Op;
  using Kind = typename Structure::Kind;

  std::set<std::int64_t> model;
  Xoshiro256 rng(seed);
  constexpr int kBatches = 120;
  for (int b = 0; b < kBatches; ++b) {
    const std::size_t batch_size = 1 + rng.next_below(16);
    std::vector<Op> ops(batch_size);
    std::vector<OpRecordBase*> ptrs;
    for (auto& op : ops) {
      const auto r = rng.next_below(10);
      op.key = static_cast<std::int64_t>(rng.next_below(64));
      op.kind = r < 4 ? Kind::Insert : (r < 7 ? Kind::Erase : Kind::Contains);
      ptrs.push_back(&op);
    }
    s.run_batch(ptrs.data(), ptrs.size());

    // Reference application in phases.
    const std::set<std::int64_t> pre = model;
    std::set<std::int64_t> erased_this_batch, inserted_this_batch;
    std::vector<bool> expected(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) {
      if (ops[i].kind == Kind::Contains) expected[i] = pre.count(ops[i].key) > 0;
    }
    for (std::size_t i = 0; i < batch_size; ++i) {
      if (ops[i].kind != Kind::Erase) continue;
      const bool hit =
          model.count(ops[i].key) > 0 && erased_this_batch.insert(ops[i].key).second;
      if (hit) model.erase(ops[i].key);
      expected[i] = hit;
    }
    for (std::size_t i = 0; i < batch_size; ++i) {
      if (ops[i].kind != Kind::Insert) continue;
      const bool fresh =
          model.count(ops[i].key) == 0 && inserted_this_batch.insert(ops[i].key).second;
      if (fresh) model.insert(ops[i].key);
      expected[i] = fresh;
    }
    for (std::size_t i = 0; i < batch_size; ++i) {
      ASSERT_EQ(ops[i].found, expected[i])
          << "batch " << b << " op " << i << " kind "
          << static_cast<int>(ops[i].kind) << " key " << ops[i].key;
    }
    ASSERT_EQ(s.size_unsafe(), model.size()) << "batch " << b;
    ASSERT_TRUE(s.check_invariants()) << "batch " << b;
  }
  // Final membership must match exactly.
  for (std::int64_t k = 0; k < 64; ++k) {
    ASSERT_EQ(s.contains_unsafe(k), model.count(k) > 0) << "key " << k;
  }
}

TEST_P(PropertySeed, SkipListMatchesPhaseAwareSetModel) {
  run_set_property<ds::BatchedSkipList>(GetParam());
}

TEST_P(PropertySeed, WBTreeMatchesPhaseAwareSetModel) {
  run_set_property<ds::BatchedWBTree>(GetParam());
}

// --- Counter ---------------------------------------------------------------

TEST_P(PropertySeed, CounterMatchesPrefixSumModel) {
  rt::Scheduler sched(4);
  ds::BatchedCounter counter(sched, /*initial=*/7);
  std::int64_t model = 7;
  Xoshiro256 rng(GetParam());
  for (int b = 0; b < 200; ++b) {
    const std::size_t batch_size = 1 + rng.next_below(4);  // <= P
    std::vector<ds::BatchedCounter::Op> ops(batch_size);
    std::vector<OpRecordBase*> ptrs;
    for (auto& op : ops) {
      op.delta = static_cast<std::int64_t>(rng.next_below(21)) - 10;
      ptrs.push_back(&op);
    }
    counter.run_batch(ptrs.data(), ptrs.size());
    for (std::size_t i = 0; i < batch_size; ++i) {
      model += ops[i].delta;
      ASSERT_EQ(ops[i].result, model) << "batch " << b << " op " << i;
    }
  }
  EXPECT_EQ(counter.value_unsafe(), model);
}

// --- Stack -----------------------------------------------------------------

TEST_P(PropertySeed, StackMatchesPushThenPopModel) {
  rt::Scheduler sched(4);
  ds::BatchedStack<std::int64_t> stack(sched);
  std::vector<std::int64_t> model;
  Xoshiro256 rng(GetParam() + 1000);
  for (int b = 0; b < 200; ++b) {
    const std::size_t batch_size = 1 + rng.next_below(8);
    std::vector<ds::BatchedStack<std::int64_t>::Op> ops(batch_size);
    std::vector<OpRecordBase*> ptrs;
    for (auto& op : ops) {
      if (rng.next() & 1) {
        op.kind = ds::BatchedStack<std::int64_t>::Kind::Push;
        op.value = static_cast<std::int64_t>(rng.next_below(1000000));
      } else {
        op.kind = ds::BatchedStack<std::int64_t>::Kind::Pop;
      }
      ptrs.push_back(&op);
    }
    stack.run_batch(ptrs.data(), ptrs.size());

    // Model: all pushes (working-set order), then pops.
    for (const auto& op : ops) {
      if (op.kind == ds::BatchedStack<std::int64_t>::Kind::Push) {
        model.push_back(op.value);
      }
    }
    for (auto& op : ops) {
      if (op.kind != ds::BatchedStack<std::int64_t>::Kind::Pop) continue;
      if (model.empty()) {
        ASSERT_FALSE(op.out.has_value()) << "batch " << b;
      } else {
        ASSERT_TRUE(op.out.has_value());
        ASSERT_EQ(*op.out, model.back()) << "batch " << b;
        model.pop_back();
      }
    }
    ASSERT_EQ(stack.size_unsafe(), model.size()) << "batch " << b;
  }
}

// --- FIFO queue --------------------------------------------------------------
//
// Phase-aware reference (mirrors the stack's): all ENQUEUEs of a batch append
// in working-set order, then DEQUEUEs take from the front in working-set
// order — so a dequeue observes a same-batch enqueue only once the pre-batch
// queue has run dry.

TEST_P(PropertySeed, QueueMatchesEnqueueThenDequeueModel) {
  rt::Scheduler sched(4);
  ds::BatchedQueue<std::int64_t> queue(sched);
  std::deque<std::int64_t> model;
  Xoshiro256 rng(GetParam() + 4000);
  for (int b = 0; b < 200; ++b) {
    const std::size_t batch_size = 1 + rng.next_below(10);
    std::vector<ds::BatchedQueue<std::int64_t>::Op> ops(batch_size);
    std::vector<OpRecordBase*> ptrs;
    for (auto& op : ops) {
      // Dequeue-heavy mix so underflow and the shrink rebuild both trigger.
      if (rng.next_below(5) < 2) {
        op.kind = ds::BatchedQueue<std::int64_t>::Kind::Enqueue;
        op.value = static_cast<std::int64_t>(rng.next_below(1000000));
      } else {
        op.kind = ds::BatchedQueue<std::int64_t>::Kind::Dequeue;
      }
      ptrs.push_back(&op);
    }
    queue.run_batch(ptrs.data(), ptrs.size());

    for (const auto& op : ops) {
      if (op.kind == ds::BatchedQueue<std::int64_t>::Kind::Enqueue) {
        model.push_back(op.value);
      }
    }
    for (auto& op : ops) {
      if (op.kind != ds::BatchedQueue<std::int64_t>::Kind::Dequeue) continue;
      if (model.empty()) {
        ASSERT_FALSE(op.out.has_value()) << "batch " << b;
      } else {
        ASSERT_TRUE(op.out.has_value()) << "batch " << b;
        ASSERT_EQ(*op.out, model.front()) << "batch " << b;
        model.pop_front();
      }
    }
    ASSERT_EQ(queue.size_unsafe(), model.size()) << "batch " << b;
    ASSERT_GE(queue.capacity_unsafe(), queue.size_unsafe()) << "batch " << b;
  }
  // Drain and confirm FIFO order end to end.
  while (!model.empty()) {
    std::vector<ds::BatchedQueue<std::int64_t>::Op> ops(1);
    ops[0].kind = ds::BatchedQueue<std::int64_t>::Kind::Dequeue;
    OpRecordBase* ptr = &ops[0];
    queue.run_batch(&ptr, 1);
    ASSERT_TRUE(ops[0].out.has_value());
    ASSERT_EQ(*ops[0].out, model.front());
    model.pop_front();
  }
  ASSERT_EQ(queue.size_unsafe(), 0u);
}

// --- Order-maintenance list --------------------------------------------------
//
// Phase-aware reference: PRECEDES queries observe the pre-batch order, then
// inserts apply grouped by anchor — groups in ascending anchor-handle order
// (the batch's sort key), each group's elements spliced right after the
// anchor in working-set order, with handles assigned sequentially per splice.

TEST_P(PropertySeed, OrderMaintenanceMatchesPhaseAwareListModel) {
  using OM = ds::BatchedOrderMaintenance;
  rt::Scheduler sched(4);
  OM om(sched);

  std::vector<OM::Handle> order{om.base()};  // reference list order
  auto pos_of = [&](OM::Handle h) {
    return static_cast<std::size_t>(
        std::find(order.begin(), order.end(), h) - order.begin());
  };

  Xoshiro256 rng(GetParam() + 5000);
  OM::Handle next_handle = 1;
  for (int b = 0; b < 80; ++b) {
    const std::size_t batch_size = 1 + rng.next_below(8);
    std::vector<OM::Op> ops(batch_size);
    std::vector<OpRecordBase*> ptrs;
    for (auto& op : ops) {
      const auto pick = [&] {
        return order[rng.next_below(order.size())];
      };
      if (rng.next_below(3) == 0) {
        op.kind = OM::Kind::Precedes;
        op.a = pick();
        op.b = pick();
      } else {
        op.kind = OM::Kind::InsertAfter;
        op.a = pick();
      }
      ptrs.push_back(&op);
    }
    om.run_batch(ptrs.data(), ptrs.size());

    // Phase 1: queries against the pre-batch order.
    for (std::size_t i = 0; i < batch_size; ++i) {
      if (ops[i].kind != OM::Kind::Precedes) continue;
      ASSERT_EQ(ops[i].before, pos_of(ops[i].a) < pos_of(ops[i].b))
          << "batch " << b << " op " << i;
    }

    // Phase 2: gather insert ops in working-set order, group by anchor.
    std::vector<OM::Op*> inserts;
    for (auto& op : ops) {
      if (op.kind == OM::Kind::InsertAfter) inserts.push_back(&op);
    }
    std::vector<OM::Handle> anchors;
    for (const OM::Op* op : inserts) anchors.push_back(op->a);
    std::sort(anchors.begin(), anchors.end());
    anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
    for (OM::Handle anchor : anchors) {
      std::vector<OM::Handle> fresh;
      for (OM::Op* op : inserts) {
        if (op->a != anchor) continue;
        ASSERT_EQ(op->result, next_handle)
            << "batch " << b << " anchor " << anchor;
        fresh.push_back(next_handle++);
      }
      order.insert(order.begin() +
                       static_cast<std::ptrdiff_t>(pos_of(anchor)) + 1,
                   fresh.begin(), fresh.end());
    }

    ASSERT_EQ(om.size_unsafe(), order.size()) << "batch " << b;
    ASSERT_TRUE(om.check_invariants()) << "batch " << b;
    // The whole reference order must agree with the structure's labels.
    for (std::size_t i = 0; i + 1 < order.size(); ++i) {
      ASSERT_TRUE(om.precedes_unsafe(order[i], order[i + 1]))
          << "batch " << b << " position " << i;
    }
  }
}

// --- Priority queue ----------------------------------------------------------

TEST_P(PropertySeed, PQMatchesMultisetModel) {
  rt::Scheduler sched(4);
  ds::BatchedPriorityQueue pq(sched);
  std::multiset<std::int64_t> model;
  Xoshiro256 rng(GetParam() + 2000);
  for (int b = 0; b < 200; ++b) {
    const std::size_t batch_size = 1 + rng.next_below(8);
    std::vector<ds::BatchedPriorityQueue::Op> ops(batch_size);
    std::vector<OpRecordBase*> ptrs;
    for (auto& op : ops) {
      if (rng.next_below(3) != 0) {
        op.kind = ds::BatchedPriorityQueue::Kind::Insert;
        op.key = static_cast<std::int64_t>(rng.next_below(1000));
      } else {
        op.kind = ds::BatchedPriorityQueue::Kind::ExtractMin;
      }
      ptrs.push_back(&op);
    }
    pq.run_batch(ptrs.data(), ptrs.size());

    for (const auto& op : ops) {
      if (op.kind == ds::BatchedPriorityQueue::Kind::Insert) model.insert(op.key);
    }
    for (auto& op : ops) {
      if (op.kind != ds::BatchedPriorityQueue::Kind::ExtractMin) continue;
      if (model.empty()) {
        ASSERT_FALSE(op.out.has_value());
      } else {
        ASSERT_TRUE(op.out.has_value());
        ASSERT_EQ(*op.out, *model.begin()) << "batch " << b;
        model.erase(model.begin());
      }
    }
    ASSERT_EQ(pq.size_unsafe(), model.size());
    ASSERT_TRUE(pq.check_invariants()) << "batch " << b;
  }
}

// --- Hash map ---------------------------------------------------------------

TEST_P(PropertySeed, HashMapMatchesWorkingSetOrderModel) {
  rt::Scheduler sched(4);
  ds::BatchedHashMap map(sched);
  std::map<std::int64_t, std::int64_t> model;
  Xoshiro256 rng(GetParam() + 3000);
  for (int b = 0; b < 150; ++b) {
    const std::size_t batch_size = 1 + rng.next_below(12);
    std::vector<ds::BatchedHashMap::Op> ops(batch_size);
    std::vector<OpRecordBase*> ptrs;
    for (auto& op : ops) {
      op.key = static_cast<std::int64_t>(rng.next_below(48));
      switch (rng.next_below(4)) {
        case 0:
          op.kind = ds::BatchedHashMap::Kind::Put;
          op.value = static_cast<std::int64_t>(rng.next_below(1000));
          break;
        case 1:
          op.kind = ds::BatchedHashMap::Kind::Get;
          break;
        case 2:
          op.kind = ds::BatchedHashMap::Kind::Erase;
          break;
        default:
          op.kind = ds::BatchedHashMap::Kind::Update;
          op.value = static_cast<std::int64_t>(rng.next_below(10));
          break;
      }
      ptrs.push_back(&op);
    }
    map.run_batch(ptrs.data(), ptrs.size());

    // Reference: strict working-set order (the hash map's strongest-in-repo
    // semantics).
    for (auto& op : ops) {
      auto it = model.find(op.key);
      switch (op.kind) {
        case ds::BatchedHashMap::Kind::Put:
          model[op.key] = op.value;
          break;
        case ds::BatchedHashMap::Kind::Get:
          if (it == model.end()) {
            ASSERT_FALSE(op.out.has_value()) << "batch " << b;
          } else {
            ASSERT_TRUE(op.out.has_value());
            ASSERT_EQ(*op.out, it->second) << "batch " << b;
          }
          break;
        case ds::BatchedHashMap::Kind::Erase:
          ASSERT_EQ(op.found, it != model.end()) << "batch " << b;
          if (it != model.end()) model.erase(it);
          break;
        case ds::BatchedHashMap::Kind::Update: {
          const std::int64_t next =
              (it == model.end() ? 0 : it->second) + op.value;
          model[op.key] = next;
          ASSERT_TRUE(op.out.has_value());
          ASSERT_EQ(*op.out, next) << "batch " << b;
          break;
        }
      }
    }
    ASSERT_EQ(map.size_unsafe(), model.size());
    ASSERT_TRUE(map.check_invariants()) << "batch " << b;
  }
}

// --- Perturbed op tapes through the real Batcher -----------------------------
//
// The models above drive run_batch directly, choosing batch partitions at
// random.  These tests close the other half of the loop: a pregenerated op
// tape executed through the *blocking* API on a live scheduler, under the
// schedule perturber (when BATCHER_AUDIT hooks are compiled in), so the
// partitions are whatever the real launch protocol produces for that seed's
// interleaving.  Since the partition is now out of the test's hands, each
// round of the tape is designed to be partition-insensitive:
//
//   * PQ rounds are insert-only or extract-only.  However an extract-only
//     round of E ops splits into batches, each batch takes the smallest
//     remaining, so the union is always the E smallest — a multiset equality
//     the reference can predict.
//   * Tree rounds touch pairwise-distinct keys, one op per strand, so every
//     op's result depends only on pre-round membership, never on how the
//     round's ops share batches.
//
// A perturbed schedule that splits rounds differently must still produce the
// same answers; a violation here is a real linearizability bug.

// Installs the perturber for one seeded run when live hooks exist; verifies
// the auditor stayed clean on teardown either way.
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

TEST_P(PropertySeed, PQPerturbedTapeMatchesSequentialReference) {
  const std::uint64_t seed = GetParam() + 6000;
  Xoshiro256 rng(seed);

  // Pregenerate the tape: alternating insert-only / extract-only rounds.
  struct Round {
    bool insert;
    std::vector<std::int64_t> keys;  // insert round: keys; extract: op count
  };
  std::vector<Round> tape;
  std::size_t modeled_size = 0;
  for (int r = 0; r < 40; ++r) {
    Round round;
    const std::size_t n = 1 + rng.next_below(12);
    round.insert = modeled_size < n || (rng.next() & 1);
    if (round.insert) {
      for (std::size_t i = 0; i < n; ++i) {
        round.keys.push_back(static_cast<std::int64_t>(rng.next_below(1000)));
      }
      modeled_size += n;
    } else {
      round.keys.resize(n);  // n extracts; values unused
      modeled_size -= n;
    }
    tape.push_back(std::move(round));
  }

  PerturbedScope perturbed(seed);
  std::multiset<std::int64_t> model;
  {
    rt::Scheduler sched(4);
    ds::BatchedPriorityQueue pq(sched);
    sched.run([&] {
      for (std::size_t r = 0; r < tape.size(); ++r) {
        const Round& round = tape[r];
        const auto n = static_cast<std::int64_t>(round.keys.size());
        if (round.insert) {
          rt::parallel_for(0, n,
                           [&](std::int64_t i) {
                             pq.insert(
                                 round.keys[static_cast<std::size_t>(i)]);
                           },
                           /*grain=*/1);
          for (std::int64_t k : round.keys) model.insert(k);
        } else {
          std::vector<std::optional<std::int64_t>> got(
              static_cast<std::size_t>(n));
          rt::parallel_for(0, n,
                           [&](std::int64_t i) {
                             got[static_cast<std::size_t>(i)] =
                                 pq.extract_min();
                           },
                           /*grain=*/1);
          // Rounds never extract from an underfull queue, so every op hits,
          // and the union of the round's batches is the n smallest.
          std::vector<std::int64_t> returned;
          for (const auto& v : got) {
            ASSERT_TRUE(v.has_value()) << "round " << r;
            returned.push_back(*v);
          }
          std::sort(returned.begin(), returned.end());
          for (std::int64_t v : returned) {
            ASSERT_FALSE(model.empty()) << "round " << r;
            ASSERT_EQ(v, *model.begin()) << "round " << r;
            model.erase(model.begin());
          }
        }
        ASSERT_EQ(pq.size_unsafe(), model.size()) << "round " << r;
      }
    });
    ASSERT_TRUE(pq.check_invariants());
  }
}

TEST_P(PropertySeed, WBTreePerturbedTapeMatchesSequentialReference) {
  const std::uint64_t seed = GetParam() + 7000;
  Xoshiro256 rng(seed);
  using Kind = ds::BatchedWBTree::Kind;

  // Pregenerate rounds of pairwise-distinct keys with one op each.
  struct RoundOp {
    std::int64_t key;
    Kind kind;
  };
  std::vector<std::vector<RoundOp>> tape;
  for (int r = 0; r < 40; ++r) {
    std::int64_t pool[64];
    for (std::int64_t k = 0; k < 64; ++k) pool[k] = k;
    for (std::size_t i = 64; i > 1; --i) {
      std::swap(pool[i - 1], pool[rng.next_below(i)]);
    }
    const std::size_t n = 1 + rng.next_below(12);
    std::vector<RoundOp> round;
    for (std::size_t i = 0; i < n; ++i) {
      const auto pick = rng.next_below(10);
      round.push_back({pool[i], pick < 4   ? Kind::Insert
                                : pick < 7 ? Kind::Erase
                                           : Kind::Contains});
    }
    tape.push_back(std::move(round));
  }

  PerturbedScope perturbed(seed);
  std::set<std::int64_t> model;
  {
    rt::Scheduler sched(4);
    ds::BatchedWBTree tree(sched);
    sched.run([&] {
      for (std::size_t r = 0; r < tape.size(); ++r) {
        const auto& round = tape[r];
        std::vector<std::uint8_t> got(round.size());
        rt::parallel_for(
            0, static_cast<std::int64_t>(round.size()),
            [&](std::int64_t i) {
              const RoundOp& op = round[static_cast<std::size_t>(i)];
              bool res = false;
              switch (op.kind) {
                case Kind::Insert: res = tree.insert(op.key); break;
                case Kind::Erase: res = tree.erase(op.key); break;
                case Kind::Contains: res = tree.contains(op.key); break;
                default: break;  // the tape draws only the three above
              }
              got[static_cast<std::size_t>(i)] = res ? 1 : 0;
            },
            /*grain=*/1);
        // Keys are distinct within the round, so every result is determined
        // by pre-round membership alone, whatever the batch split was.
        for (std::size_t i = 0; i < round.size(); ++i) {
          const RoundOp& op = round[i];
          const bool member = model.count(op.key) > 0;
          const bool expected =
              op.kind == Kind::Contains ? member
              : op.kind == Kind::Erase  ? member
                                        : !member;  // Insert: fresh
          ASSERT_EQ(got[i] != 0, expected)
              << "round " << r << " op " << i << " key " << op.key;
        }
        for (const RoundOp& op : round) {
          if (op.kind == Kind::Insert) model.insert(op.key);
          if (op.kind == Kind::Erase) model.erase(op.key);
        }
        ASSERT_EQ(tree.size_unsafe(), model.size()) << "round " << r;
      }
    });
    ASSERT_TRUE(tree.check_invariants());
    for (std::int64_t k = 0; k < 64; ++k) {
      ASSERT_EQ(tree.contains_unsafe(k), model.count(k) > 0) << "key " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySeed,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

}  // namespace
}  // namespace batcher
