#include "trace/metrics.hpp"

#include <array>
#include <cstdio>

#include "trace/replay.hpp"

namespace batcher::trace {

namespace {

std::uint64_t delta(std::uint64_t from, std::uint64_t to) {
  return to >= from ? to - from : 0;
}

// Indexed by Hist and Bucket; a worker outside every bucketed window is in
// the scheduling loop, so Bucket::kNone charges steal.
constexpr LatencyHistogram MetricsReport::*kHistograms[] = {
    nullptr,
    &MetricsReport::op_latency,
    &MetricsReport::flag_held,
    &MetricsReport::collect_phase,
    &MetricsReport::run_phase,
    &MetricsReport::complete_phase,
};
using Attribution = MetricsReport::Attribution;
constexpr std::uint64_t Attribution::*kBucketCells[] = {
    &Attribution::steal_ns,   &Attribution::useful_ns,
    &Attribution::steal_ns,   &Attribution::trapped_ns,
    &Attribution::flag_wait_ns, &Attribution::parked_ns,
};

// MetricsReport fields that count one entry each.
constexpr struct {
  EventId id;
  std::uint64_t MetricsReport::*field;
} kCounts[] = {
    {EventId::kOpSubmit, &MetricsReport::ops_submitted},
    {EventId::kLaunchEnter, &MetricsReport::batches},
    {EventId::kFrameSlabRefill, &MetricsReport::frame_slab_refills},
    {EventId::kFrameRemoteFree, &MetricsReport::frame_remote_frees},
    {EventId::kAnnouncePush, &MetricsReport::announce_pushes},
    {EventId::kLaunchChained, &MetricsReport::chained_launches},
    {EventId::kFlagCasFail, &MetricsReport::flag_cas_failures},
    {EventId::kOpTimeout, &MetricsReport::ops_timed_out},
    {EventId::kOpShed, &MetricsReport::ops_shed},
};

// One thread's share of the report, fed by its WindowReplay.
struct ThreadMetrics {
  MetricsReport& m;
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint64_t cursor;
  bool attributing;  // a worker thread, before its kWorkerExit
  WindowReplay replay;
  std::uint64_t streak_ts = 0;
  bool streak_open = false;

  // Charges the time since the last record to the innermost bucket.
  // Clamping every timestamp into [t0, t1] keeps the partition exact even if
  // a record carries a timestamp from just outside the session window.
  std::uint64_t clamp(std::uint64_t ts) const {
    return ts < t0 ? t0 : (ts > t1 ? t1 : ts);
  }
  void advance_to(std::uint64_t ts) {
    ts = clamp(ts);
    const std::uint64_t d = delta(cursor, ts);
    cursor = ts;
    if (d == 0) return;
    m.attribution.*kBucketCells[static_cast<std::size_t>(replay.bucket())] +=
        d;
    m.attribution.attributed_ns += d;
  }

  void opened(const OpenWindow&) {}

  // A histogram window that ends without its closer is an unmatched edge.
  // Only a stranded one degrades the pairing: one left open at the end just
  // means the session stopped mid-slice.
  void closed(const OpenWindow& w, const TraceRecord* closer, End how) {
    const Hist hist = window_info(w.window).hist;
    if (hist != Hist::kNone && how == End::kPaired) {
      (m.*kHistograms[static_cast<std::size_t>(hist)])
          .add(delta(w.open.ts_ns, closer->ts_ns));
    } else if (hist != Hist::kNone && how != End::kEnded) {
      ++m.unmatched_edges;
    }
    if (how == End::kStranded && attributing &&
        bucket_of(w) != Bucket::kNone) {
      m.pairing_degraded = true;
    }
  }

  // kLaunchExit also ends failed and empty launches, which have no complete
  // phase, so a missing one there is no stranded edge.
  void orphan(Window w, const TraceRecord&) {
    const WindowInfo& info = window_info(w);
    if (info.hist != Hist::kNone && info.closer != EventId::kLaunchExit) {
      ++m.unmatched_edges;
    }
    if (attributing && info.bucket != Bucket::kNone) m.pairing_degraded = true;
  }

  // steal_to_success: one sample per search, from its first miss to the
  // steal that won.  A streak the worker leaves without a win (it starts a
  // task of its own, resumes from batchify, or parks) is dropped.  (A won
  // steal closed the streak before its task began.)
  void on_steal(const TraceRecord& r) {
    if ((r.a16 & kStealKindBatch) != 0) {
      ++m.steal_attempts_batch;
    } else {
      ++m.steal_attempts_core;
    }
    if ((r.a16 & kStealSuccess) != 0) {
      ++m.steals_won;
      m.steal_to_success.add(streak_open ? delta(streak_ts, r.ts_ns) : 0);
      streak_open = false;
    } else if (!streak_open) {
      streak_open = true;
      streak_ts = r.ts_ns;
    }
  }
};

}  // namespace

MetricsReport build_metrics(const Trace& trace) {
  MetricsReport m;
  m.total_records = trace.total_records();
  m.dropped_records = trace.dropped_records();
  m.wall_seconds = trace.wall_seconds();
  if (m.dropped_records > 0) {
    // Overwritten ring records strand pairing edges and attribution windows;
    // downstream consumers see pairing_degraded, but say it loudly too.
    std::fprintf(stderr,
                 "[trace] warning: %llu trace records dropped (ring "
                 "overwrite); derived metrics are degraded — raise "
                 "BATCHER_TRACE_RING\n",
                 static_cast<unsigned long long>(m.dropped_records));
    m.pairing_degraded = true;
  }

  std::array<std::uint64_t, kNumEvents> count{};
  for (const TraceThread& thread : trace.threads) {
    const bool is_worker = thread.worker_id != kNoWorkerId;
    if (is_worker) ++m.attribution.worker_threads;
    // A worker's accountable window is [kWorkerStart, kWorkerExit] clamped
    // to [t0, t1]; one that started before the session has no kWorkerStart
    // record, so its window opens at t0.
    std::uint64_t window_start = trace.t0_ns;
    if (!thread.records.empty() &&
        static_cast<EventId>(thread.records.front().event) ==
            EventId::kWorkerStart) {
      window_start = thread.records.front().ts_ns;
    }
    ThreadMetrics t{m, trace.t0_ns, trace.t1_ns, 0, is_worker, {}};
    t.cursor = t.clamp(window_start);
    for (const TraceRecord& r : thread.records) {
      if (t.attributing) t.advance_to(r.ts_ns);
      t.replay.step(r, t);
      if (r.event < kNumEvents) ++count[r.event];
      switch (static_cast<EventId>(r.event)) {
        case EventId::kTaskBegin:
        case EventId::kOpResume:
        case EventId::kParkBegin:
          t.streak_open = false;
          break;
        case EventId::kTaskEnd:
          ++(r.a16 == 0 ? m.tasks_core : m.tasks_batch);
          break;
        case EventId::kSteal:
          t.on_steal(r);
          break;
        case EventId::kCollected:
          if (r.a32 >= m.batch_size_hist.size()) {
            m.batch_size_hist.resize(r.a32 + 1, 0);
          }
          ++m.batch_size_hist[r.a32];
          break;
        case EventId::kWorkerExit:
          t.attributing = false;  // the window ends here, not at t1
          break;
        default:
          break;
      }
    }
    if (t.attributing) t.advance_to(trace.t1_ns);
    t.replay.finish(t);
  }
  for (const auto& [id, field] : kCounts) {
    m.*field = count[static_cast<std::size_t>(id)];
  }
  m.empty_batches = m.batch_size_hist.empty() ? 0 : m.batch_size_hist[0];
  return m;
}

void histogram_to_json(const LatencyHistogram& h, json::Writer& w) {
  w.begin_object();
  w.kv("count", h.count());
  w.kv("sum_ns", h.sum_ns());
  w.kv("min_ns", h.min_ns());
  w.kv("max_ns", h.max_ns());
  w.kv("mean_ns", h.mean_ns());
  w.kv("p50_ns", h.percentile_ns(0.50));
  w.kv("p90_ns", h.percentile_ns(0.90));
  w.kv("p99_ns", h.percentile_ns(0.99));
  // SLO gating reads the tail: p999 quantizes to the same power-of-two
  // bucket ceilings as the other percentiles (up to 2x overstatement, never
  // past max_ns), so compare gates on it use generous tolerances.
  w.kv("p999_ns", h.percentile_ns(0.999));
  w.key("buckets").begin_array();
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (h.bucket(i) == 0) continue;
    w.begin_object();
    w.kv("ge_ns", LatencyHistogram::bucket_floor_ns(i));
    w.kv("lt_ns", LatencyHistogram::bucket_ceil_ns(i));
    w.kv("count", h.bucket(i));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void MetricsReport::to_json(json::Writer& w) const {
  w.begin_object();
  w.kv("total_records", total_records);
  w.kv("dropped_records", dropped_records);
  w.kv("wall_seconds", wall_seconds);
  w.kv("tasks_core", tasks_core);
  w.kv("tasks_batch", tasks_batch);
  w.kv("steal_attempts_core", steal_attempts_core);
  w.kv("steal_attempts_batch", steal_attempts_batch);
  w.kv("steals_won", steals_won);
  w.kv("steal_core_fraction", steal_core_fraction());
  w.kv("ops_submitted", ops_submitted);
  w.kv("ops", ops());
  w.kv("batches", batches);
  w.kv("empty_batches", empty_batches);
  w.kv("batches_per_sec", batches_per_sec());
  w.kv("mean_batch_size", mean_batch_size());
  w.kv("max_batch_size", max_batch_size());
  w.kv("frame_slab_refills", frame_slab_refills);
  w.kv("frame_remote_frees", frame_remote_frees);
  w.kv("announce_pushes", announce_pushes);
  w.kv("chained_launches", chained_launches);
  w.kv("flag_cas_failures", flag_cas_failures);
  w.kv("ops_timed_out", ops_timed_out);
  w.kv("ops_shed", ops_shed);
  w.kv("unmatched_edges", unmatched_edges);
  w.kv("pairing_degraded", pairing_degraded);
  w.key("worker_attribution").begin_object();
  w.kv("worker_threads", attribution.worker_threads);
  w.kv("attributed_ns", attribution.attributed_ns);
  w.kv("useful_ns", attribution.useful_ns);
  w.kv("steal_ns", attribution.steal_ns);
  w.kv("trapped_ns", attribution.trapped_ns);
  w.kv("flag_wait_ns", attribution.flag_wait_ns);
  w.kv("parked_ns", attribution.parked_ns);
  w.end_object();
  w.key("batch_size_distribution").begin_array();
  for (std::uint64_t n : batch_size_hist) w.value(n);
  w.end_array();
  w.key("histograms").begin_object();
  const struct {
    const char* name;
    const LatencyHistogram& h;
  } named[] = {
      {"op_submit_to_done_ns", op_latency},
      {"flag_held_ns", flag_held},
      {"launch_collect_ns", collect_phase},
      {"launch_run_ns", run_phase},
      {"launch_complete_ns", complete_phase},
      {"steal_to_success_ns", steal_to_success},
  };
  for (const auto& [name, h] : named) {
    w.key(name);
    histogram_to_json(h, w);
  }
  w.end_object();
  w.end_object();
}

}  // namespace batcher::trace
