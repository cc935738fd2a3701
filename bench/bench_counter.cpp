// T1-counter — the paper's §3 shared-counter example: n parallel increments
// under (a) the implicitly batched counter, (b) an atomic fetch-and-add
// counter, (c) a mutex counter, plus the simulated Ω(n)-contention story.
//
// Theory: batched counter runs in O(n lgP / P + lg n); a mutually exclusive
// RMW counter is Ω(n) regardless of P.
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "concurrent/counters.hpp"
#include "ds/batched_counter.hpp"
#include "runtime/api.hpp"
#include "runtime/scheduler.hpp"
#include "sim/cost_model.hpp"
#include "sim/dag.hpp"
#include "sim/sim_batcher.hpp"
#include "sim/sim_concurrent.hpp"

namespace {
namespace bench = batcher::bench;
using batcher::Stopwatch;

const std::int64_t kN = bench::scaled(200000, 20000);

// Sets `mismatch` if the final count is not kN: a lost or duplicated
// increment fails the bench, not just its printout.
double run_batched(unsigned workers, bench::Report& report, bool& mismatch) {
  // Scheduler stats come from the destructor-time snapshot: that is the
  // flushed quiescent point at which the frame-pool identities the report
  // validator checks (frames_allocated == frames_freed) hold exactly.
  batcher::rt::StatsSnapshot final_stats;
  double secs = 0.0;
  {
    batcher::rt::Scheduler sched(workers);
    sched.export_final_stats(&final_stats);
    batcher::ds::BatchedCounter counter(sched);
    Stopwatch sw;
    sched.run([&] {
      batcher::rt::parallel_for(0, kN,
                                [&](std::int64_t) { counter.increment(1); },
                                /*grain=*/64);
    });
    secs = sw.elapsed_seconds();
    if (counter.value_unsafe() != kN) {
      std::printf("  !! counter mismatch (P=%u): %lld != %lld\n", workers,
                  static_cast<long long>(counter.value_unsafe()),
                  static_cast<long long>(kN));
      mismatch = true;
    }
    report.batcher_stats("BATCHED/P=" + std::to_string(workers),
                         counter.batcher().stats());
  }
  report.scheduler_stats("BATCHED/P=" + std::to_string(workers), final_stats);
  return secs;
}

template <typename Counter>
double run_threaded(unsigned threads) {
  Counter counter;
  Stopwatch sw;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::int64_t i = 0; i < kN / threads; ++i) counter.increment(1);
    });
  }
  for (auto& th : pool) th.join();
  return sw.elapsed_seconds();
}

}  // namespace

int main() {
  bench::header("T1-counter",
                "n parallel increments: batched vs atomic vs mutex counters "
                "(paper §3 example)");
  bench::Report report("counter");
  report.config("n", static_cast<std::uint64_t>(kN));
  bench::TraceScope trace(report);
  bool mismatch = false;
  bench::row("%-6s %-14s %12s", "P", "variant", "Mincs/s");
  for (unsigned p : {1u, 2u, 4u, 8u}) {
    const double batched = bench::mops(kN, run_batched(p, report, mismatch));
    const double atomic =
        bench::mops(kN, run_threaded<batcher::conc::AtomicCounter>(p));
    const double mutex =
        bench::mops(kN, run_threaded<batcher::conc::MutexCounter>(p));
    bench::row("%-6u %-14s %12.3f", p, "BATCHED", batched);
    bench::row("%-6u %-14s %12.3f", p, "ATOMIC", atomic);
    bench::row("%-6u %-14s %12.3f", p, "MUTEX", mutex);
    const std::string suffix = "/P=" + std::to_string(p);
    report.metric("mincs_per_s/BATCHED" + suffix, batched * 1e6, "1/s");
    report.metric("mincs_per_s/ATOMIC" + suffix, atomic * 1e6, "1/s");
    report.metric("mincs_per_s/MUTEX" + suffix, mutex * 1e6, "1/s");
  }

  bench::note("simulated processors: BATCHER vs serializing concurrent "
              "counter (the introduction's Omega(n) scenario)");
  bench::row("%-6s %-14s %12s %10s", "P", "variant", "makespan", "speedup");
  using namespace batcher::sim;
  Dag core = build_parallel_loop_with_ds(8192, 1, 1, 1);
  std::int64_t base_b = 0, base_c = 0;
  for (unsigned workers : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    CounterCostModel model;
    BatcherSimConfig bcfg;
    bcfg.workers = workers;
    const SimResult rb = simulate_batcher(core, model, bcfg);

    ConcurrentSimConfig ccfg;
    ccfg.workers = workers;
    ccfg.base_cost = 1;
    ccfg.contention_factor = 1;  // mutually exclusive RMW
    const SimResult rc = simulate_concurrent(core, ccfg);

    if (workers == 1) {
      base_b = rb.makespan;
      base_c = rc.makespan;
    }
    bench::row("%-6u %-14s %12lld %10.2f", workers, "BATCHED",
               static_cast<long long>(rb.makespan),
               static_cast<double>(base_b) / static_cast<double>(rb.makespan));
    bench::row("%-6u %-14s %12lld %10.2f", workers, "CONTENDED-FAA",
               static_cast<long long>(rc.makespan),
               static_cast<double>(base_c) / static_cast<double>(rc.makespan));
    const std::string suffix = "/P=" + std::to_string(workers);
    report.metric("sim_makespan/BATCHED" + suffix,
                  static_cast<double>(rb.makespan), "steps");
    report.metric("sim_makespan/CONTENDED-FAA" + suffix,
                  static_cast<double>(rc.makespan), "steps");
  }
  bench::note("paper: the serializing counter flatlines at its Omega(n) "
              "floor (makespan ~ n) while the batched counter keeps "
              "improving with P; increments are cheap, so the crossover "
              "needs large P — which is exactly the paper's conclusion that "
              "implicit batching pays off once per-op work amortizes the "
              "batching overhead (cf. the skip-list/tree benches)");
  report.write();
  std::printf("\n");
  return mismatch ? 1 : 0;
}
