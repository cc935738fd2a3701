// T5-sparseop — the launch control path in the sparse-operation regime
// (DESIGN.md §11).
//
// Only K=2 lanes issue batched increments while the scheduler is sized at
// P >> K: every batch carries at most K ops, so the launch control path is
// the dominant cost.  The announce-list collect pays O(batch) per launch, so
// sweeping P with the workload held fixed should leave throughput ~flat.
#include <cstdio>
#include <string>

#include "bench/common.hpp"
#include "ds/batched_counter.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"

namespace {
namespace bench = batcher::bench;
using batcher::Stopwatch;

constexpr unsigned kLanes = 2;
const std::int64_t kOpsPerLane = bench::scaled(4000, 400);
const int kReps = bench::scaled(12, 3);

}  // namespace

int main() {
  bench::header("T5-sparseop",
                "K=2 sparse lanes vs P-sized scheduler: announce-list "
                "collect, launch path O(batch) not Theta(P)");
  bench::Report report("sparseop");
  report.config("lanes", static_cast<std::uint64_t>(kLanes));
  report.config("ops_per_lane", static_cast<std::uint64_t>(kOpsPerLane));
  report.config("reps", static_cast<std::uint64_t>(kReps));
  bench::TraceScope trace(report);

  bool mismatch = false;
  bench::row("%-6s %12s %10s %10s %10s", "P", "ops/s", "batches", "empty",
             "chained");
  for (unsigned p : {4u, 8u, 16u, 32u}) {
    const std::string label = "ANNOUNCE/P=" + std::to_string(p);
    // Filled when the scheduler joins its workers (end of the inner scope);
    // the scheduler_stats row — including the bound ledger's measured
    // work/span — is emitted after that point so the frame-pool and
    // critical-path totals are final.
    batcher::rt::StatsSnapshot final_stats;
    {
      batcher::rt::Scheduler sched(p);
      sched.export_final_stats(&final_stats);
      batcher::ds::BatchedCounter counter(sched);
      double seconds = 0.0;
      // One rep: kLanes lanes of sequential increments, the other P - kLanes
      // workers idle — the sparse-op regime.
      for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch sw;
        sched.run([&] {
          batcher::rt::parallel_for(
              0, static_cast<std::int64_t>(kLanes),
              [&](std::int64_t) {
                for (std::int64_t i = 0; i < kOpsPerLane; ++i) {
                  counter.increment(1);
                }
              },
              /*grain=*/1);
        });
        seconds += sw.elapsed_seconds();
      }
      const std::int64_t total =
          static_cast<std::int64_t>(kLanes) * kOpsPerLane * kReps;
      if (counter.value_unsafe() != total) {
        std::printf("  !! counter mismatch (%s): %lld != %lld\n",
                    label.c_str(),
                    static_cast<long long>(counter.value_unsafe()),
                    static_cast<long long>(total));
        mismatch = true;
      }
      const batcher::BatcherStats st = counter.batcher().stats();
      const double ops_per_s =
          seconds > 0 ? static_cast<double>(total) / seconds : 0.0;
      bench::row("%-6u %12.0f %10llu %10llu %10llu", p, ops_per_s,
                 static_cast<unsigned long long>(st.batches_launched),
                 static_cast<unsigned long long>(st.empty_batches),
                 static_cast<unsigned long long>(st.chained_launches));
      report.metric("ops_per_s/" + label, ops_per_s, "1/s");
      report.metric("batches_per_op/" + label,
                    static_cast<double>(st.batches_launched) /
                        static_cast<double>(total));
      report.batcher_stats(label, st);
    }
    report.scheduler_stats(label, final_stats);
  }
  bench::note("announce collect touches only announced slots, so its launch "
              "cost tracks the (tiny) batch, not P");
  report.write();
  std::printf("\n");
  return mismatch ? 1 : 0;
}
