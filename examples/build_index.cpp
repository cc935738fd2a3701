// build_index: the paper's §3 search-tree scenario as an application — a
// parallel job builds a sorted index (batched weight-balanced tree) over a
// stream of record keys, then answers membership queries, all through
// implicit batching.
//
//   $ ./build_index [records] [workers]
//
// The interesting part: the indexing loop and the query loop are ordinary
// parallel code; the tree handles whole batches (sort the batch's keys, then
// merge them in by splitting at each root key and joining the two halves
// back together, both sides in parallel) with zero concurrency control, yet
// the program gets the paper's Θ(n lg n / P) aggregate bound.  Exits non-zero
// if the finished index fails its balance/order check or a query answers
// wrong.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "ds/batched_wbtree.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "support/rng.hpp"
#include "support/timing.hpp"

int main(int argc, char** argv) {
  const std::int64_t records = argc > 1 ? std::atoll(argv[1]) : 200000;
  const unsigned workers = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 4;

  batcher::rt::Scheduler scheduler(workers);
  batcher::ds::BatchedWBTree index(scheduler);

  // Synthesize record keys (e.g., document ids extracted by parallel parsing).
  batcher::Xoshiro256 rng(2024);
  std::vector<std::int64_t> keys(static_cast<std::size_t>(records));
  for (auto& k : keys) k = static_cast<std::int64_t>(rng.next_below(1ull << 40));

  batcher::Stopwatch sw;
  scheduler.run([&] {
    batcher::rt::parallel_for(
        0, records,
        [&](std::int64_t i) { index.insert(keys[static_cast<std::size_t>(i)]); },
        /*grain=*/32);
  });
  const double build_secs = sw.elapsed_seconds();

  // Parallel membership queries: half hits, half misses.
  std::int64_t hits = 0;
  sw.reset();
  scheduler.run([&] {
    std::atomic<std::int64_t> hit_count{0};
    batcher::rt::parallel_for(
        0, records,
        [&](std::int64_t i) {
          const std::int64_t probe = (i % 2 == 0)
                                         ? keys[static_cast<std::size_t>(i)]
                                         : -i - 1;  // guaranteed miss
          if (index.contains(probe)) hit_count.fetch_add(1);
        },
        /*grain=*/32);
    hits = hit_count.load();
  });
  const double query_secs = sw.elapsed_seconds();
  const std::int64_t expected_hits = (records + 1) / 2;
  const bool invariants_ok = index.check_invariants();

  std::printf("build_index: %lld records on %u workers\n",
              static_cast<long long>(records), workers);
  std::printf("  index size        : %zu distinct keys, height %d\n",
              index.size_unsafe(), index.height_unsafe());
  std::printf("  build             : %.3fs (%.2f Mkeys/s)\n", build_secs,
              static_cast<double>(records) / build_secs / 1e6);
  std::printf("  queries           : %.3fs, %lld hits (expected %lld)\n",
              query_secs, static_cast<long long>(hits),
              static_cast<long long>(expected_hits));
  std::printf("  invariants        : %s\n", invariants_ok ? "OK" : "VIOLATED");
  const auto stats = index.batcher().stats();
  std::printf("  batches           : %llu (mean size %.2f)\n",
              static_cast<unsigned long long>(stats.batches_launched),
              stats.mean_batch_size());
  return invariants_ok && hits == expected_hits ? 0 : 1;
}
