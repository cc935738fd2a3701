#include "trace/metrics.hpp"

#include <algorithm>
#include <cstdio>

namespace batcher::trace {

namespace {

// Per-thread pairing state while replaying a record stream.
struct ThreadPairing {
  std::uint64_t op_submit_ts = 0;
  bool op_open = false;
  std::uint64_t flag_ts = 0;
  bool flag_open = false;
  std::uint64_t launch_ts = 0;
  bool launch_open = false;  // kLaunchEnter seen, awaiting kCollected
  std::uint64_t collected_ts = 0;
  bool bop_open = false;  // kCollected seen, awaiting kBopDone
  std::uint64_t bop_ts = 0;
  bool complete_open = false;  // kBopDone seen, awaiting kLaunchExit
  std::uint64_t steal_streak_ts = 0;
  bool steal_streak_open = false;

  std::uint64_t open_edges() const {
    return static_cast<std::uint64_t>(op_open) + flag_open + launch_open +
           bop_open + complete_open;
  }
};

std::uint64_t delta(std::uint64_t from, std::uint64_t to) {
  return to >= from ? to - from : 0;
}

// Attribution state machine: the innermost open window decides the bucket.
enum class Bucket : std::uint8_t { Steal, Useful, Trapped, FlagWait, Parked };

struct BucketFrame {
  Bucket bucket;
  EventId opened_by;
};

// Decomposes one worker thread's records into the five attribution buckets.
// Clamping every timestamp into [t0, t1] keeps the partition exact even if a
// record carries a timestamp from just outside the session window.
struct AttributionReplay {
  MetricsReport::Attribution& a;
  std::uint64_t t0;
  std::uint64_t t1;
  std::vector<BucketFrame> stack;
  std::uint64_t cursor;
  bool closed = false;
  bool degraded = false;

  AttributionReplay(MetricsReport::Attribution& attribution, std::uint64_t t0_ns,
                    std::uint64_t t1_ns, std::uint64_t window_start)
      : a(attribution), t0(t0_ns), t1(t1_ns), cursor(clamp(window_start)) {}

  std::uint64_t clamp(std::uint64_t ts) const {
    return ts < t0 ? t0 : (ts > t1 ? t1 : ts);
  }

  std::uint64_t& cell(Bucket b) {
    switch (b) {
      case Bucket::Useful: return a.useful_ns;
      case Bucket::Trapped: return a.trapped_ns;
      case Bucket::FlagWait: return a.flag_wait_ns;
      case Bucket::Parked: return a.parked_ns;
      case Bucket::Steal: break;
    }
    return a.steal_ns;
  }

  void advance_to(std::uint64_t ts) {
    ts = clamp(ts);
    const std::uint64_t d = delta(cursor, ts);
    cursor = ts;
    if (d == 0) return;
    cell(stack.empty() ? Bucket::Steal : stack.back().bucket) += d;
    a.attributed_ns += d;
  }

  void push(Bucket b, EventId by) { stack.push_back({b, by}); }

  // Pops the topmost frame opened by `by`.  A required pop that finds
  // nothing means a drop ate the opening record.
  void pop(EventId by, bool required) {
    for (std::size_t i = stack.size(); i > 0; --i) {
      if (stack[i - 1].opened_by == by) {
        if (i != stack.size()) degraded = true;  // drop stranded inner frames
        stack.resize(i - 1);
        return;
      }
    }
    if (required) degraded = true;
  }

  void on_record(const TraceRecord& r) {
    if (closed) return;
    advance_to(r.ts_ns);
    switch (static_cast<EventId>(r.event)) {
      case EventId::kTaskBegin:
        push(Bucket::Useful, EventId::kTaskBegin);
        break;
      case EventId::kTaskEnd:
        pop(EventId::kTaskBegin, /*required=*/true);
        break;
      case EventId::kJoinWaitBegin:
        push(Bucket::Steal, EventId::kJoinWaitBegin);
        break;
      case EventId::kJoinWaitEnd:
        pop(EventId::kJoinWaitBegin, /*required=*/true);
        break;
      case EventId::kOpSubmit:
        push(Bucket::Trapped, EventId::kOpSubmit);
        break;
      case EventId::kOpResume:
        pop(EventId::kOpSubmit, /*required=*/true);
        break;
      case EventId::kFlagWon:
        push(Bucket::FlagWait, EventId::kFlagWon);
        break;
      case EventId::kFlagReopen:
        pop(EventId::kFlagWon, /*required=*/true);
        break;
      case EventId::kCollected:
        // Empty batches skip the BOP entirely: no useful window to open.
        if (r.a32 > 0) push(Bucket::Useful, EventId::kCollected);
        break;
      case EventId::kBopDone:
        pop(EventId::kCollected, /*required=*/true);
        break;
      case EventId::kLaunchExit:
        // A failed launch never reaches kBopDone; close its BOP window here.
        // Clean launches already popped it, so this pop is best-effort.
        pop(EventId::kCollected, /*required=*/false);
        break;
      case EventId::kParkBegin:
        push(Bucket::Parked, EventId::kParkBegin);
        break;
      case EventId::kParkEnd:
        pop(EventId::kParkBegin, /*required=*/true);
        break;
      case EventId::kPumpParkBegin:
        push(Bucket::Parked, EventId::kPumpParkBegin);
        break;
      case EventId::kPumpParkEnd:
        pop(EventId::kPumpParkBegin, /*required=*/true);
        break;
      case EventId::kWorkerExit:
        closed = true;  // window ends here, not at t1
        break;
      default:
        break;  // counting events carry no attribution state
    }
  }

  // A session stop mid-slice legitimately leaves frames open (charged to
  // their bucket up to t1); only pop mismatches mark the replay degraded.
  void finish() {
    if (!closed) advance_to(t1);
  }
};

}  // namespace

MetricsReport build_metrics(const Trace& trace) {
  MetricsReport m;
  m.total_records = trace.total_records();
  m.dropped_records = trace.dropped_records();
  m.wall_seconds = trace.wall_seconds();
  if (m.dropped_records > 0) {
    // Overwritten ring records strand pairing edges and attribution frames;
    // downstream consumers see pairing_degraded, but say it loudly too.
    std::fprintf(stderr,
                 "[trace] warning: %llu trace records dropped (ring "
                 "overwrite); derived metrics are degraded — raise "
                 "BATCHER_TRACE_RING\n",
                 static_cast<unsigned long long>(m.dropped_records));
    m.pairing_degraded = true;
  }

  for (const TraceThread& thread : trace.threads) {
    ThreadPairing p;
    const bool is_worker = thread.worker_id != kNoWorkerId;
    // Worker threads that started before the session have no kWorkerStart
    // record; their accountable window opens at t0.
    std::uint64_t window_start = trace.t0_ns;
    if (!thread.records.empty() &&
        static_cast<EventId>(thread.records.front().event) ==
            EventId::kWorkerStart) {
      window_start = thread.records.front().ts_ns;
    }
    AttributionReplay attr(m.attribution, trace.t0_ns, trace.t1_ns,
                           window_start);
    if (is_worker) ++m.attribution.worker_threads;
    for (const TraceRecord& r : thread.records) {
      if (is_worker) attr.on_record(r);
      switch (static_cast<EventId>(r.event)) {
        case EventId::kTaskBegin:
          // Slices are an export concern; counts come from kTaskEnd.  A task
          // the worker did not just steal is its own work: the search it was
          // on ended without a steal, so drop the open streak.  (A won steal
          // closed the streak before its task began.)
          p.steal_streak_open = false;
          break;
        case EventId::kTaskEnd:
          if (r.a16 == 0) {
            ++m.tasks_core;
          } else {
            ++m.tasks_batch;
          }
          break;
        case EventId::kSteal: {
          const bool batch = (r.a16 & kStealKindBatch) != 0;
          const bool hit = (r.a16 & kStealSuccess) != 0;
          if (batch) {
            ++m.steal_attempts_batch;
          } else {
            ++m.steal_attempts_core;
          }
          if (hit) {
            ++m.steals_won;
            m.steal_to_success.add(
                p.steal_streak_open ? delta(p.steal_streak_ts, r.ts_ns) : 0);
            p.steal_streak_open = false;
          } else if (!p.steal_streak_open) {
            p.steal_streak_open = true;
            p.steal_streak_ts = r.ts_ns;
          }
          break;
        }
        case EventId::kOpSubmit:
          ++m.ops_submitted;
          m.unmatched_edges += p.op_open;  // a drop ate the matching resume
          p.op_open = true;
          p.op_submit_ts = r.ts_ns;
          break;
        case EventId::kOpResume:
          p.steal_streak_open = false;  // the trapped wait's search is over
          if (p.op_open) {
            m.op_latency.add(delta(p.op_submit_ts, r.ts_ns));
            p.op_open = false;
          } else {
            ++m.unmatched_edges;
          }
          break;
        case EventId::kFlagWon:
          m.unmatched_edges += p.flag_open;
          p.flag_open = true;
          p.flag_ts = r.ts_ns;
          break;
        case EventId::kLaunchEnter:
          ++m.batches;
          m.unmatched_edges += p.launch_open + p.bop_open + p.complete_open;
          p.launch_open = true;
          p.bop_open = p.complete_open = false;
          p.launch_ts = r.ts_ns;
          break;
        case EventId::kCollected:
          if (r.a32 >= m.batch_size_hist.size()) {
            m.batch_size_hist.resize(r.a32 + 1, 0);
          }
          ++m.batch_size_hist[r.a32];
          if (r.a32 == 0) ++m.empty_batches;
          if (p.launch_open) {
            m.collect_phase.add(delta(p.launch_ts, r.ts_ns));
            p.launch_open = false;
          } else {
            ++m.unmatched_edges;
          }
          p.bop_open = true;
          p.collected_ts = r.ts_ns;
          break;
        case EventId::kBopDone:
          if (p.bop_open) {
            m.run_phase.add(delta(p.collected_ts, r.ts_ns));
            p.bop_open = false;
          } else {
            ++m.unmatched_edges;
          }
          p.complete_open = true;
          p.bop_ts = r.ts_ns;
          break;
        case EventId::kLaunchExit:
          if (p.complete_open) {
            m.complete_phase.add(delta(p.bop_ts, r.ts_ns));
            p.complete_open = false;
          }
          // Empty or failed launches never reach kBopDone; their open
          // collect-side edge simply closes with the launch.  The flag edge
          // stays open: a chained launch keeps the flag held past this exit,
          // and kFlagReopen closes it (once per chain).
          p.launch_open = p.bop_open = false;
          break;
        case EventId::kFlagReopen:
          if (p.flag_open) {
            m.flag_held.add(delta(p.flag_ts, r.ts_ns));
            p.flag_open = false;
          } else {
            ++m.unmatched_edges;
          }
          break;
        case EventId::kLaunchChained:
          ++m.chained_launches;
          break;
        case EventId::kAnnouncePush:
          ++m.announce_pushes;
          break;
        case EventId::kFlagCasFail:
          ++m.flag_cas_failures;
          break;
        case EventId::kFrameSlabRefill:
          ++m.frame_slab_refills;
          break;
        case EventId::kFrameRemoteFree:
          ++m.frame_remote_frees;
          break;
        case EventId::kOpTimeout:
          ++m.ops_timed_out;
          break;
        case EventId::kOpShed:
          ++m.ops_shed;
          break;
        case EventId::kParkBegin:
          p.steal_streak_open = false;  // a parked worker is not searching
          break;
        default:
          break;  // attribution events, consumed by AttributionReplay above
      }
    }
    m.unmatched_edges += p.open_edges();
    if (is_worker) {
      attr.finish();
      if (attr.degraded) m.pairing_degraded = true;
    }
  }
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
