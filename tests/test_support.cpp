// Unit tests for the support layer: RNG, arena, padding, timing.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "support/arena.hpp"
#include "support/backoff.hpp"
#include "support/config.hpp"
#include "support/padded.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"

namespace batcher {
namespace {

TEST(SplitMix64, DeterministicAndDistinct) {
  SplitMix64 a(42), b(42), c(43);
  const std::uint64_t a1 = a.next();
  EXPECT_EQ(a1, b.next());
  EXPECT_NE(a1, c.next());
  // Successive outputs differ.
  EXPECT_NE(a.next(), a.next());
}

TEST(Xoshiro256, DeterministicStream) {
  Xoshiro256 a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256, SeedsDecorrelate) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LE(same, 1);
}

TEST(Xoshiro256, NextBelowInRange) {
  Xoshiro256 rng(123);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 100ull, 1000000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Xoshiro256, NextBelowCoversAllResidues) {
  Xoshiro256 rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Xoshiro256, NextBelowRoughlyUniform) {
  Xoshiro256 rng(5);
  constexpr int kBuckets = 16;
  constexpr int kSamples = 160000;
  int counts[kBuckets] = {0};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.next_below(kBuckets)];
  }
  const double expected = static_cast<double>(kSamples) / kBuckets;
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], expected, expected * 0.1) << "bucket " << b;
  }
}

TEST(Xoshiro256, NextDoubleInUnitInterval) {
  Xoshiro256 rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Padded, OccupiesWholeCacheLines) {
  EXPECT_EQ(sizeof(Padded<int>) % kCacheLineSize, 0u);
  EXPECT_EQ(alignof(Padded<int>), kCacheLineSize);
  Padded<int> array[4];
  for (int i = 0; i < 4; ++i) *array[i] = i;
  for (int i = 0; i < 4; ++i) EXPECT_EQ(*array[i], i);
}

TEST(Arena, AllocationsAreAlignedAndDisjoint) {
  Arena arena(1024);
  std::vector<char*> ptrs;
  for (int i = 0; i < 100; ++i) {
    char* p = static_cast<char*>(arena.allocate(24));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    for (char* q : ptrs) {
      // 24 rounds to 32; regions must not overlap.
      EXPECT_TRUE(p + 32 <= q || q + 32 <= p);
    }
    ptrs.push_back(p);
  }
}

TEST(Arena, HandlesOversizedAllocations) {
  Arena arena(64);
  void* big = arena.allocate(10000);
  EXPECT_NE(big, nullptr);
  void* small = arena.allocate(8);
  EXPECT_NE(small, nullptr);
}

TEST(Arena, CreateConstructsObjects) {
  struct Pod {
    int a;
    double b;
  };
  Arena arena;
  Pod* p = arena.create<Pod>(3, 2.5);
  EXPECT_EQ(p->a, 3);
  EXPECT_DOUBLE_EQ(p->b, 2.5);
}

TEST(Arena, MoveTransfersOwnership) {
  Arena a;
  int* p = a.create<int>(41);
  Arena b = std::move(a);
  EXPECT_EQ(*p, 41);  // still valid, owned by b now
  Arena c;
  c = std::move(b);
  EXPECT_EQ(*p, 41);
}

// Blocks are 2 MiB; requests larger than that get a block of their own,
// contiguous and writable end to end, and the arena keeps serving small
// requests afterwards.
TEST(Arena, AllocationsLargerThanAHugePage) {
  constexpr std::size_t kBig = 5 * Arena::kHugePage + 123;
  Arena arena;
  char* small = static_cast<char*>(arena.allocate(40));
  char* big = static_cast<char*>(arena.allocate(kBig));
  char* after = static_cast<char*>(arena.allocate(40));
  for (char* p : {small, big, after}) {
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
  }
  std::memset(big, 0x5a, kBig);
  std::memset(small, 1, 40);
  std::memset(after, 2, 40);
  EXPECT_EQ(big[0], 0x5a);
  EXPECT_EQ(big[kBig - 1], 0x5a);
  EXPECT_TRUE(small + 48 <= big || big + kBig <= small);
  EXPECT_TRUE(after + 48 <= big || big + kBig <= after);
}

// Odd-sized requests keep 16-byte alignment when they spill into a fresh
// block, and never straddle two blocks.
TEST(Arena, AlignedAcrossBlockBoundaries) {
  constexpr std::size_t kSize = 4099;  // rounds up to 4112
  Arena arena;
  char* prev = static_cast<char*>(arena.allocate(kSize));
  int boundaries = 0;
  for (int i = 0; i < 1500; ++i) {  // ~6 MiB: at least two fresh blocks
    char* p = static_cast<char*>(arena.allocate(kSize));
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    if (p != prev + 4112) {
      ++boundaries;
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % Arena::kHugePage, 0u);
    }
    std::memset(p, i & 0x7f, kSize);
    prev = p;
  }
  EXPECT_GE(boundaries, 2);
}

// Move-assignment hands the source's blocks over and unmaps the target's
// old ones: their pages are no longer mapped (mincore reports ENOMEM).
TEST(Arena, MoveAssignmentReleasesOldBlocks) {
  Arena target;
  char* old_block = static_cast<char*>(target.allocate(64));
  Arena source;
  int* kept = source.create<int>(7);
  unsigned char resident = 0;
  ASSERT_EQ(::mincore(old_block, 4096, &resident), 0);
  target = std::move(source);
  errno = 0;
  EXPECT_EQ(::mincore(old_block, 4096, &resident), -1);
  EXPECT_EQ(errno, ENOMEM);
  EXPECT_EQ(*kept, 7);  // the moved-in block is still live
}

// Spare blocks.  An arena that opens its second block asks the filler
// thread for a faulted-in spare; add_block takes it when it is ready and maps
// a block itself when it is not.  These tests wait on the filler with a
// generous deadline, so a slow host reads as a failed wait, not a hang.
bool eventually(const auto& pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

// Fills `blocks` whole blocks with 1008-byte allocations (2080 per block,
// with a 512-byte tail left over), waiting for a ready spare before every
// block after the second when `wait_for_spare`.  Checks alignment, writes a
// per-allocation tag and returns the allocations.
std::vector<char*> fill_blocks(Arena& arena, int blocks, bool wait_for_spare) {
  constexpr std::size_t kSize = 1000;  // rounds up to 1008
  constexpr int kPerBlock = static_cast<int>(Arena::kHugePage / 1008);
  std::vector<char*> ptrs;
  for (int b = 0; b < blocks; ++b) {
    if (wait_for_spare && b >= 2) {
      EXPECT_TRUE(eventually([&] { return arena.spare_ready(); }));
    }
    for (int i = 0; i < kPerBlock; ++i) {
      char* p = static_cast<char*>(arena.allocate(kSize));
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
      std::memset(p, static_cast<int>(ptrs.size() & 0x7f), kSize);
      ptrs.push_back(p);
    }
  }
  return ptrs;
}

void expect_disjoint_and_intact(std::vector<char*> ptrs) {
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    ASSERT_EQ(ptrs[i][0], static_cast<char>(i & 0x7f)) << "allocation " << i;
    ASSERT_EQ(ptrs[i][999], static_cast<char>(i & 0x7f)) << "allocation " << i;
  }
  std::sort(ptrs.begin(), ptrs.end());
  for (std::size_t i = 1; i < ptrs.size(); ++i) {
    ASSERT_GE(ptrs[i] - ptrs[i - 1], 1008) << "allocation " << i;
  }
}

TEST(Arena, SpareBlocksKeepAllocationsAlignedDisjointAndWritable) {
  Arena waited;
  const std::vector<char*> a = fill_blocks(waited, 6, /*wait_for_spare=*/true);
  EXPECT_TRUE(waited.has_spare());
  expect_disjoint_and_intact(a);
  // Back to back: most blocks open while the next fill is still running.
  Arena raced;
  const std::vector<char*> b = fill_blocks(raced, 6, /*wait_for_spare=*/false);
  expect_disjoint_and_intact(b);
}

TEST(Arena, WithinOneBlockNeverRequestsASpare) {
  Arena arena;
  for (int i = 0; i < 2000; ++i) arena.allocate(1000);  // < 2 MiB in all
  EXPECT_FALSE(arena.has_spare());
  EXPECT_FALSE(arena.spare_ready());
  Arena big(3 * Arena::kHugePage);  // one 6 MiB block
  for (int i = 0; i < 6000; ++i) big.allocate(1000);
  EXPECT_FALSE(big.has_spare());
}

// Destroying an arena right after it asked for a spare hands the pending
// fill to the filler, which unmaps the block and frees the spare; under ASan
// a double free or a use after free of the spare crashes here.
TEST(Arena, DestroyedWhileItsSpareIsFillingLeaksNothing) {
  const std::size_t before = Arena::spares_live();
  for (int i = 0; i < 50; ++i) {
    Arena arena;
    arena.allocate(Arena::kHugePage);
    arena.allocate(64);  // opens the second block and asks for a spare
    EXPECT_TRUE(arena.has_spare());
  }
  EXPECT_TRUE(eventually([&] { return Arena::spares_live() <= before; }))
      << Arena::spares_live() << " spares still alive";
}

TEST(Arena, MovesWhileAFillIsPendingKeepTheSpare) {
  const std::size_t before = Arena::spares_live();
  {
    Arena source;
    source.allocate(Arena::kHugePage);
    int* kept = source.create<int>(11);  // second block: a fill is pending
    Arena moved = std::move(source);
    EXPECT_FALSE(source.has_spare());
    EXPECT_TRUE(moved.has_spare());
    Arena assigned;
    assigned.allocate(Arena::kHugePage);
    assigned.allocate(64);  // its own pending fill, abandoned below
    assigned = std::move(moved);
    EXPECT_TRUE(assigned.has_spare());
    EXPECT_EQ(*kept, 11);
    const std::vector<char*> more =
        fill_blocks(assigned, 3, /*wait_for_spare=*/true);
    expect_disjoint_and_intact(more);
    EXPECT_EQ(*kept, 11);
  }
  EXPECT_TRUE(eventually([&] { return Arena::spares_live() <= before; }))
      << Arena::spares_live() << " spares still alive";
}

TEST(Stopwatch, MonotonicNonNegative) {
  Stopwatch sw;
  const double t0 = sw.elapsed_seconds();
  EXPECT_GE(t0, 0.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(sw.elapsed_seconds(), t0);
  sw.reset();
  EXPECT_LT(sw.elapsed_seconds(), 1.0);
}

TEST(Backoff, PauseAndResetDoNotHang) {
  Backoff b;
  for (int i = 0; i < 20; ++i) b.pause();
  b.reset();
  b.pause();
  SUCCEED();
}

}  // namespace
}  // namespace batcher
