// Cross-module integration tests: real runtime + BATCHER + data structures +
// baselines working together on paper-shaped workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "concurrent/seq_skiplist.hpp"
#include "ds/batched_counter.hpp"
#include "ds/batched_pq.hpp"
#include "ds/batched_skiplist.hpp"
#include "ds/batched_wbtree.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"

namespace batcher {
namespace {

using ds::BatchedCounter;
using ds::BatchedPriorityQueue;
using ds::BatchedSkipList;
using ds::BatchedWBTree;

// The paper's §7 workload shape: pre-populate, then parallel-loop inserts
// with 100 keys per BATCHIFY record.  Verified against the sequential list.
TEST(Integration, Figure5WorkloadEndToEnd) {
  constexpr std::int64_t kInitial = 20000;
  constexpr std::int64_t kCalls = 200;
  constexpr std::int64_t kPerCall = 100;

  rt::Scheduler sched(8);
  BatchedSkipList list(sched);
  conc::SeqSkipList reference;

  Xoshiro256 rng(1234);
  for (std::int64_t i = 0; i < kInitial; ++i) {
    const auto k = static_cast<std::int64_t>(rng.next_below(1u << 30));
    list.insert_unsafe(k);
    reference.insert(k);
  }
  ASSERT_EQ(list.size_unsafe(), reference.size());

  std::vector<std::vector<std::int64_t>> blocks(kCalls);
  for (auto& block : blocks) {
    block.resize(kPerCall);
    for (auto& k : block) {
      k = static_cast<std::int64_t>(rng.next_below(1u << 30));
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
  // Spot-check membership.
  for (const auto& block : blocks) {
    for (std::int64_t k : block) ASSERT_TRUE(list.contains_unsafe(k));
  }
}

TEST(Integration, TwoStructuresOneProgram) {
  rt::Scheduler sched(4);
  BatchedCounter counter(sched);
  BatchedSkipList list(sched);
  constexpr std::int64_t kN = 1000;
  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      list.insert(i);
      counter.increment(1);
    });
  });
  EXPECT_EQ(counter.value_unsafe(), kN);
  EXPECT_EQ(list.size_unsafe(), static_cast<std::size_t>(kN));
}

TEST(Integration, SkipListAndTreeAgreeOnRandomWorkload) {
  rt::Scheduler sched(4);
  BatchedSkipList list(sched);
  BatchedWBTree tree(sched);
  constexpr std::int64_t kN = 2000;
  Xoshiro256 rng(77);
  std::vector<std::int64_t> keys(kN);
  for (auto& k : keys) k = static_cast<std::int64_t>(rng.next_below(1500));

  sched.run([&] {
    rt::parallel_for(0, kN, [&](std::int64_t i) {
      const std::int64_t k = keys[static_cast<std::size_t>(i)];
      list.insert(k);
      tree.insert(k);
    });
  });
  EXPECT_EQ(list.size_unsafe(), tree.size_unsafe());
  for (std::int64_t k = 0; k < 1500; ++k) {
    ASSERT_EQ(list.contains_unsafe(k), tree.contains_unsafe(k)) << k;
  }
}

TEST(Integration, CounterLinearizableAcrossRepeatedRuns) {
  rt::Scheduler sched(8);
  BatchedCounter counter(sched);
  std::int64_t expected = 0;
  for (int round = 0; round < 5; ++round) {
    sched.run([&] {
      rt::parallel_for(0, 500, [&](std::int64_t) { counter.increment(2); });
    });
    expected += 1000;
    EXPECT_EQ(counter.value_unsafe(), expected) << "round " << round;
  }
}

// Dijkstra with the batched priority queue vs. a reference implementation.
// (The sssp example uses the same pattern; here it is verified.)
TEST(Integration, DijkstraWithBatchedPQ) {
  // Random sparse digraph.
  constexpr int kNodes = 200;
  constexpr int kEdges = 1200;
  struct Edge {
    int to;
    std::int64_t w;
  };
  std::vector<std::vector<Edge>> adj(kNodes);
  Xoshiro256 rng(5);
  for (int e = 0; e < kEdges; ++e) {
    const int u = static_cast<int>(rng.next_below(kNodes));
    const int v = static_cast<int>(rng.next_below(kNodes));
    const auto w = static_cast<std::int64_t>(1 + rng.next_below(100));
    adj[static_cast<std::size_t>(u)].push_back({v, w});
  }

  // Reference: plain Dijkstra.
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  std::vector<std::int64_t> ref_dist(kNodes, kInf);
  {
    std::set<std::pair<std::int64_t, int>> pq;
    ref_dist[0] = 0;
    pq.insert({0, 0});
    while (!pq.empty()) {
      auto [d, u] = *pq.begin();
      pq.erase(pq.begin());
      if (d > ref_dist[static_cast<std::size_t>(u)]) continue;
      for (const Edge& e : adj[static_cast<std::size_t>(u)]) {
        if (d + e.w < ref_dist[static_cast<std::size_t>(e.to)]) {
          ref_dist[static_cast<std::size_t>(e.to)] = d + e.w;
          pq.insert({d + e.w, e.to});
        }
      }
    }
  }

  // Batched: distances packed into PQ keys as dist * kNodes + node.
  rt::Scheduler sched(4);
  BatchedPriorityQueue pq(sched);
  std::vector<std::atomic<std::int64_t>> dist(kNodes);
  for (auto& d : dist) d.store(kInf);
  dist[0].store(0);
  pq.insert_unsafe(0);  // key = 0 * kNodes + 0

  // Sequential settle loop with parallel relaxation of each frontier node's
  // edges; the PQ itself is accessed through implicit batching.
  sched.run([&] {
    while (true) {
      auto top = pq.extract_min();
      if (!top.has_value()) break;
      const std::int64_t d = *top / kNodes;
      const int u = static_cast<int>(*top % kNodes);
      if (d > dist[static_cast<std::size_t>(u)].load()) continue;
      auto& edges = adj[static_cast<std::size_t>(u)];
      rt::parallel_for(
          0, static_cast<std::int64_t>(edges.size()),
          [&](std::int64_t i) {
            const Edge& e = edges[static_cast<std::size_t>(i)];
            const std::int64_t nd = d + e.w;
            std::int64_t cur = dist[static_cast<std::size_t>(e.to)].load();
            while (nd < cur &&
                   !dist[static_cast<std::size_t>(e.to)]
                        .compare_exchange_weak(cur, nd)) {
            }
            if (nd <= dist[static_cast<std::size_t>(e.to)].load() && nd ==
                dist[static_cast<std::size_t>(e.to)].load()) {
              pq.insert(nd * kNodes + e.to);
            }
          },
          /*grain=*/4);
    }
  });

  for (int v = 0; v < kNodes; ++v) {
    EXPECT_EQ(dist[static_cast<std::size_t>(v)].load(),
              ref_dist[static_cast<std::size_t>(v)])
        << "node " << v;
  }
}

TEST(Integration, HeavyChurnStaysConsistent) {
  rt::Scheduler sched(8);
  BatchedSkipList list(sched);
  for (std::int64_t k = 0; k < 1000; k += 2) list.insert_unsafe(k);
  sched.run([&] {
    rt::parallel_for(0, 4000, [&](std::int64_t i) {
      const std::int64_t k = i % 1000;
      switch (i % 4) {
        case 0: list.insert(k); break;
        case 1: list.erase(k); break;
        case 2: list.contains(k); break;
        default: list.insert(k + 10000); break;
      }
    });
  });
  EXPECT_TRUE(list.check_invariants());
}

}  // namespace
}  // namespace batcher
