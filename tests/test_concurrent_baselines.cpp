// Tests for the concurrent/sequential baseline structures.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "concurrent/counters.hpp"
#include "concurrent/seq_skiplist.hpp"
#include "support/rng.hpp"

namespace batcher::conc {
namespace {

TEST(SeqSkipList, InsertContainsErase) {
  SeqSkipList list;
  EXPECT_TRUE(list.insert(5));
  EXPECT_TRUE(list.insert(3));
  EXPECT_FALSE(list.insert(5));
  EXPECT_TRUE(list.contains(3));
  EXPECT_FALSE(list.contains(4));
  EXPECT_TRUE(list.erase(3));
  EXPECT_FALSE(list.erase(3));
  EXPECT_FALSE(list.contains(3));
  EXPECT_EQ(list.size(), 1u);
}

TEST(SeqSkipList, RandomTraceMatchesStdSet) {
  SeqSkipList list;
  std::set<std::int64_t> ref;
  Xoshiro256 rng(3);
  for (int step = 0; step < 20000; ++step) {
    const std::int64_t k = static_cast<std::int64_t>(rng.next_below(512));
    switch (rng.next_below(3)) {
      case 0:
        ASSERT_EQ(list.insert(k), ref.insert(k).second);
        break;
      case 1:
        ASSERT_EQ(list.contains(k), ref.count(k) > 0);
        break;
      default:
        ASSERT_EQ(list.erase(k), ref.erase(k) > 0);
        break;
    }
  }
  EXPECT_EQ(list.size(), ref.size());
}

TEST(AtomicCounter, SequentialSemantics) {
  AtomicCounter c(10);
  EXPECT_EQ(c.increment(5), 15);
  EXPECT_EQ(c.increment(-3), 12);
  EXPECT_EQ(c.read(), 12);
}

TEST(AtomicCounter, ParallelIncrementsAllLand) {
  AtomicCounter c;
  constexpr int kThreads = 4;
  constexpr int kPer = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPer; ++i) c.increment(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.read(), kThreads * kPer);
}

TEST(AtomicCounter, ReturnsDistinctValues) {
  AtomicCounter c;
  constexpr int kThreads = 4;
  constexpr int kPer = 2000;
  std::vector<std::vector<std::int64_t>> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        results[static_cast<std::size_t>(t)].push_back(c.increment(1));
      }
    });
  }
  for (auto& t : threads) t.join();
  std::set<std::int64_t> all;
  for (const auto& r : results) all.insert(r.begin(), r.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPer));
}

TEST(MutexCounter, ParallelIncrementsAllLand) {
  MutexCounter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 5000; ++i) c.increment(2);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.read(), 4 * 5000 * 2);
}

}  // namespace
}  // namespace batcher::conc
