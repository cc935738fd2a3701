// Aggregate metrics derived from a drained trace.
//
// build_metrics replays each thread's records through the one pairing replay
// (replay.hpp) over the windows of kWindows (event.hpp), which says per
// window which histogram its lengths feed and which bucket its time is
// charged to.  steal_to_success is no window: it runs from the first miss of
// a steal streak to the steal that succeeded, and a streak the worker leaves
// without a won steal (it starts a task of its own, resumes from batchify,
// or parks) is dropped, so every sample is one search.  Records lost to ring
// overflow can strand a window or orphan a closer; those are counted in
// unmatched_edges rather than silently skewing a histogram.
//
// Every *worker* thread's accountable window — [kWorkerStart, kWorkerExit],
// clamped to [t0, t1] — is split into five buckets (worker_attribution) by
// the innermost open window that has one; outside all of them a worker is in
// its scheduling loop, which is charged to steal.  So
//   useful + steal + trapped + flag_wait + parked == attributed_ns
// holds exactly, and attributed_ns <= worker_threads * wall by construction
// — the online bound ledger (bound_ledger.hpp) is validated against these.
// Dropped records can strand the replay; `pairing_degraded` says so.
//
// The derived quantities at the bottom are the paper's: measured batch-size
// distribution (checked against Invariant 2's P bound by callers that know
// P), the alternating-steal parity split, and batches per second.
#pragma once

#include <cstdint>
#include <vector>

#include "support/json.hpp"
#include "trace/histogram.hpp"
#include "trace/trace.hpp"

namespace batcher::trace {

struct MetricsReport {
  // Volume.
  std::uint64_t total_records = 0;
  std::uint64_t dropped_records = 0;
  double wall_seconds = 0.0;

  // Event counts.
  std::uint64_t tasks_core = 0;
  std::uint64_t tasks_batch = 0;
  std::uint64_t steal_attempts_core = 0;
  std::uint64_t steal_attempts_batch = 0;
  std::uint64_t steals_won = 0;
  std::uint64_t ops_submitted = 0;
  std::uint64_t batches = 0;        // kLaunchEnter count
  std::uint64_t empty_batches = 0;  // kCollected with size 0
  std::uint64_t frame_slab_refills = 0;  // kFrameSlabRefill count
  std::uint64_t frame_remote_frees = 0;  // kFrameRemoteFree count
  std::uint64_t announce_pushes = 0;     // kAnnouncePush count (§11)
  std::uint64_t chained_launches = 0;    // kLaunchChained count (§11)
  std::uint64_t flag_cas_failures = 0;   // kFlagCasFail count
  std::uint64_t ops_timed_out = 0;       // kOpTimeout count (external §13)
  std::uint64_t ops_shed = 0;            // kOpShed count (external §13)
  std::uint64_t unmatched_edges = 0;

  // Where P * wall went: the five-bucket decomposition described above.
  struct Attribution {
    std::uint64_t worker_threads = 0;  // rings with a real worker id
    std::uint64_t attributed_ns = 0;   // Σ accountable window lengths
    std::uint64_t useful_ns = 0;
    std::uint64_t steal_ns = 0;
    std::uint64_t trapped_ns = 0;
    std::uint64_t flag_wait_ns = 0;
    std::uint64_t parked_ns = 0;
  };
  Attribution attribution;
  // True when ring drops (or the stack mismatches they cause) degraded the
  // pairing replay; histogram and attribution values are then lower bounds.
  bool pairing_degraded = false;

  // Latency distributions (nanoseconds).
  LatencyHistogram op_latency;
  LatencyHistogram flag_held;
  LatencyHistogram collect_phase;
  LatencyHistogram run_phase;
  LatencyHistogram complete_phase;
  LatencyHistogram steal_to_success;

  // Batch-size distribution: index = ops in the batch (from kCollected).
  std::vector<std::uint64_t> batch_size_hist;

  // Derived paper quantities.
  std::uint64_t ops() const { return op_latency.count(); }
  std::uint64_t max_batch_size() const {
    return batch_size_hist.empty()
               ? 0
               : static_cast<std::uint64_t>(batch_size_hist.size() - 1);
  }
  double mean_batch_size() const {
    std::uint64_t nonempty = 0, weighted = 0;
    for (std::size_t k = 1; k < batch_size_hist.size(); ++k) {
      nonempty += batch_size_hist[k];
      weighted += k * batch_size_hist[k];
    }
    return nonempty == 0 ? 0.0
                         : static_cast<double>(weighted) /
                               static_cast<double>(nonempty);
  }
  double batches_per_sec() const {
    return wall_seconds <= 0.0 ? 0.0
                               : static_cast<double>(batches) / wall_seconds;
  }
  std::uint64_t steal_attempts() const {
    return steal_attempts_core + steal_attempts_batch;
  }
  // Fraction of steal attempts aimed at core deques — ~0.5 for free workers
  // under the §4 alternating policy, pulled lower by trapped workers' batch-
  // only stealing.
  double steal_core_fraction() const {
    return steal_attempts() == 0
               ? 0.0
               : static_cast<double>(steal_attempts_core) /
                     static_cast<double>(steal_attempts());
  }

  // Serializes the full report (counts, derived quantities, histograms with
  // per-bucket bounds) as one JSON object into `w`.
  void to_json(json::Writer& w) const;
};

MetricsReport build_metrics(const Trace& trace);

// Shared by MetricsReport and the bench reporter: one histogram as a JSON
// object {count, sum_ns, min_ns, max_ns, mean_ns, p50/p90/p99_ns, buckets}.
void histogram_to_json(const LatencyHistogram& h, json::Writer& w);

}  // namespace batcher::trace
