// FIG5-real — reproduces the measurement protocol of the paper's Figure 5 on
// real threads: throughput of BATCHER skip-list insertion vs. a sequential
// skip list, for several initial sizes and worker counts.
//
// Protocol (paper §7): pre-populate the list to `initial` elements, then time
// the insertion of `kInserts` further elements; each BATCHIFY call carries
// 100 insertion records (the paper's trick for simulating bigger batches).
//
// One addition over the paper's figure: a span-profile section drives
// run_batch directly at controlled batch sizes and books each call into the
// bound ledger, so the report carries per-size s(n) histograms for the
// sort-merge BOP (`span_growth/skiplist_sortmerge` is synthesized from them
// by tools/bench_compare.py).  Organic batches almost never exceed a couple
// of ops, which is why the profile drives sizes explicitly.
//
// NOTE on hardware: the paper ran on 8 real cores.  Rows with more workers
// than the host has hardware threads (printed in the header) measure
// scheduling overhead under time-slicing, not parallel speedup;
// bench_sim_fig5 reproduces the scaling shape on simulated processors.
// Measured span is still meaningful at any worker count: the ledger folds
// strand segments max-wise at joins, so the critical path of a divide-and-
// conquer splice stays logarithmic even when executed on one core.
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "concurrent/seq_skiplist.hpp"
#include "ds/batched_skiplist.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"

namespace {

using batcher::Stopwatch;
using batcher::ds::BatchedSkipList;
namespace bench = batcher::bench;

const std::int64_t kInserts =
    bench::scaled(100000, 10000);           // paper: 100,000
constexpr std::int64_t kPerRecord = 100;    // paper: 100 records per BATCHIFY

double run_sequential(std::int64_t initial, std::uint64_t seed) {
  batcher::conc::SeqSkipList list(seed);
  const auto init_keys =
      bench::random_keys(static_cast<std::size_t>(initial), seed + 1);
  for (auto k : init_keys) list.insert(k);
  const auto keys =
      bench::random_keys(static_cast<std::size_t>(kInserts), seed + 2);
  Stopwatch sw;
  for (auto k : keys) list.insert(k);
  return sw.elapsed_seconds();
}

struct BatResult {
  double seconds;
  double mean_batch;
};

BatResult run_batcher(std::int64_t initial, unsigned workers,
                      std::uint64_t seed, bench::Report& report) {
  const std::string label = "BAT/initial=" + std::to_string(initial) +
                            "/P=" + std::to_string(workers);
  // Scheduler stats come from the destructor-time snapshot: that is the
  // flushed quiescent point at which the frame-pool identities the report
  // validator checks (frames_allocated == frames_freed) hold exactly.
  batcher::rt::StatsSnapshot final_stats;
  BatResult result{};
  {
    batcher::rt::Scheduler sched(workers);
    sched.export_final_stats(&final_stats);
    BatchedSkipList list(sched, seed);
    const auto init_keys =
        bench::random_keys(static_cast<std::size_t>(initial), seed + 1);
    for (auto k : init_keys) list.insert_unsafe(k);
    const auto keys =
        bench::random_keys(static_cast<std::size_t>(kInserts), seed + 2);
    const std::int64_t calls = kInserts / kPerRecord;

    Stopwatch sw;
    sched.run([&] {
      batcher::rt::parallel_for(
          0, calls,
          [&](std::int64_t c) {
            list.multi_insert(std::span<const std::int64_t>(
                keys.data() + c * kPerRecord, kPerRecord));
          },
          /*grain=*/1);
    });
    result.seconds = sw.elapsed_seconds();
    const batcher::BatcherStats stats = list.batcher().stats();
    result.mean_batch = stats.mean_batch_size();
    report.batcher_stats(label, stats);
  }
  report.scheduler_stats(label, final_stats);
  return result;
}

// Drives `list.run_batch` directly (bypassing the launcher) at controlled
// batch sizes, booking every invocation into the bound ledger under the
// list's trace domain.  Each size does an insert round with fresh keys and
// an erase round over those same keys, so both splice passes are measured.
// Returns nothing: the evidence lands in the report's bound_ledger section.
void span_profile(batcher::rt::Scheduler& sched, BatchedSkipList& list,
                  std::uint64_t seed) {
  constexpr std::size_t kProfileSizes[] = {1, 4, 16, 64, 4096};
  // Unbooked warmup reps absorb cold caches and arena block faults; the
  // booked mean still rides OS jitter, so take enough samples that one
  // descheduled rep cannot dominate a bucket.
  constexpr int kWarmup = 3;
  constexpr int kReps = 96;
  constexpr std::int64_t kPrepopulate = 10000;

  const auto init_keys =
      bench::random_keys(static_cast<std::size_t>(kPrepopulate), seed + 1);
  for (auto k : init_keys) list.insert_unsafe(k);

  const std::uint16_t domain = list.batcher().trace_id();
  std::uint64_t salt = seed + 2;
  sched.run([&] {
    for (std::size_t n : kProfileSizes) {
      for (int rep = 0; rep < kWarmup + kReps; ++rep) {
        const bool warm = rep >= kWarmup;
        const auto keys = bench::random_keys(n, ++salt);
        std::vector<BatchedSkipList::Op> ops(n);
        std::vector<batcher::OpRecordBase*> ptrs(n);
        for (std::size_t i = 0; i < n; ++i) {
          ops[i].kind = BatchedSkipList::Kind::Insert;
          ops[i].key = keys[i];
          ptrs[i] = &ops[i];
        }
        if (warm) {
          bench::profiled_bop(domain, n,
                              [&] { list.run_batch(ptrs.data(), n); });
        } else {
          list.run_batch(ptrs.data(), n);
        }
        for (std::size_t i = 0; i < n; ++i) {
          ops[i].kind = BatchedSkipList::Kind::Erase;
          ops[i].key = keys[i];
          ops[i].found = false;
        }
        if (warm) {
          bench::profiled_bop(domain, n,
                              [&] { list.run_batch(ptrs.data(), n); });
        } else {
          list.run_batch(ptrs.data(), n);
        }
      }
    }
  });
}

}  // namespace

int main() {
  bench::header("FIG5-real",
                "BATCHER vs sequential skip-list insert throughput "
                "(paper Fig. 5 protocol, real threads)");
  bench::note("inserting %lld keys, %lld per operation record",
              static_cast<long long>(kInserts),
              static_cast<long long>(kPerRecord));
  bench::note("host has %u hardware thread(s): rows with more workers "
              "time-slice; see FIG5-sim for scaling shape",
              std::thread::hardware_concurrency());
  bench::Report report("fig5_skiplist");
  report.config("inserts", static_cast<std::uint64_t>(kInserts));
  report.config("per_record", static_cast<std::uint64_t>(kPerRecord));
  bench::TraceScope trace(report);

  // Span-profile structures are constructed before any throughput-lane
  // structure and stay alive through report.write(): trace domain ids are
  // recycled on unregister, so this ordering pins their ledger domains (and
  // the labels attached to them) for the whole run.
  batcher::rt::Scheduler profile_sched(1);
  BatchedSkipList profile(profile_sched, 17);
  report.domain_label(profile.batcher().trace_id(), "skiplist_sortmerge");
  if (batcher::trace::enabled()) {
    bench::note("span profile: directly driven batches of size 1..4096, "
                "insert+erase -> bound_ledger");
    span_profile(profile_sched, profile, 17);
  }

  bench::row("%-10s %-8s %-8s %12s %12s", "initial", "variant", "workers",
             "Minserts/s", "mean batch");

  const std::vector<std::int64_t> sizes =
      bench::smoke() ? std::vector<std::int64_t>{2000, 10000}
                     : std::vector<std::int64_t>{20000, 100000, 1000000};
  for (const std::int64_t initial : sizes) {
    const double seq_secs = run_sequential(initial, 42);
    bench::row("%-10lld %-8s %-8d %12.3f %12s",
               static_cast<long long>(initial), "SEQ", 1,
               bench::mops(kInserts, seq_secs), "-");
    report.metric("minserts_per_s/SEQ/initial=" + std::to_string(initial),
                  bench::mops(kInserts, seq_secs) * 1e6, "1/s");
    for (unsigned workers : {1u, 2u, 4u, 8u}) {
      const BatResult r = run_batcher(initial, workers, 42, report);
      bench::row("%-10lld %-8s %-8u %12.3f %12.2f",
                 static_cast<long long>(initial), "BAT", workers,
                 bench::mops(kInserts, r.seconds), r.mean_batch);
      report.metric("minserts_per_s/BAT/initial=" + std::to_string(initial) +
                        "/P=" + std::to_string(workers),
                    bench::mops(kInserts, r.seconds) * 1e6, "1/s");
    }
  }
  report.write();
  std::printf("\n");
  return 0;
}
