#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "support/json.hpp"

namespace batcher::trace {

namespace {

constexpr int kPid = 0;
constexpr std::uint64_t kDomainTidBase = 1000000;

double rel_us(std::uint64_t ts_ns, std::uint64_t t0_ns) {
  return ts_ns <= t0_ns ? 0.0
                        : static_cast<double>(ts_ns - t0_ns) / 1000.0;
}

void event_header(json::Writer& w, const char* ph, std::uint64_t tid,
                  double ts_us) {
  w.begin_object();
  w.kv("ph", ph);
  w.kv("pid", kPid);
  w.kv("tid", tid);
  w.kv("ts", ts_us);
}

void metadata(json::Writer& w, std::uint64_t tid, const std::string& name) {
  event_header(w, "M", tid, 0.0);
  w.kv("name", "thread_name");
  w.key("args").begin_object().kv("name", name).end_object();
  w.end_object();
}

void process_metadata(json::Writer& w) {
  event_header(w, "M", 0, 0.0);
  w.kv("name", "process_name");
  w.key("args").begin_object().kv("name", "batcher").end_object();
  w.end_object();
}

// One sample of a Perfetto counter track ("C" event).  Counters are keyed by
// (pid, name); Perfetto draws a step function through the samples.
void counter_sample(json::Writer& w, const std::string& name, double ts_us,
                    std::uint64_t value) {
  w.begin_object();
  w.kv("ph", "C");
  w.kv("pid", kPid);
  w.kv("ts", ts_us);
  w.kv("name", name);
  w.key("args").begin_object().kv("value", value).end_object();
  w.end_object();
}

// A pending-depth or workers-working change, merged across threads and
// replayed in global time order so the counters are exact.
struct CounterEvent {
  std::uint64_t ts_ns;
  std::uint16_t domain;  // pending-depth counters; kNoCounterDomain = working
  std::int32_t delta;
};
constexpr std::uint16_t kNoCounterDomain = 0xffff;

// A slice opened on a worker track, awaiting its end event.
struct OpenSlice {
  EventId opened_by;
  std::string name;
};

// One domain-track event, merged across threads and replayed in time order
// (Invariant 1 serializes launches per domain, so this is a total order).
struct DomainEvent {
  std::uint64_t ts_ns;
  std::uint16_t domain;
  EventId event;
  std::uint32_t a32;
};

void complete_event(json::Writer& w, std::uint64_t tid, const std::string& name,
                    double ts_us, double dur_us) {
  event_header(w, "X", tid, ts_us);
  w.kv("dur", dur_us);
  w.kv("name", name);
  w.end_object();
}

std::string domain_label(std::uint16_t id) {
  return "d" + std::to_string(id);
}

}  // namespace

std::string chrome_trace_json(const Trace& trace, ChromeTraceOptions options) {
  json::Writer w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  process_metadata(w);

  std::vector<DomainEvent> domain_events;
  std::vector<std::uint16_t> domains_seen;
  std::vector<CounterEvent> counter_events;

  for (const TraceThread& thread : trace.threads) {
    const std::uint64_t tid = thread.serial;
    const std::string name =
        thread.worker_id == kNoWorkerId
            ? "external-tid-" + std::to_string(thread.serial)
            : "worker-" + std::to_string(thread.worker_id);
    metadata(w, tid, name);

    std::vector<OpenSlice> stack;
    auto begin_slice = [&](EventId by, std::string slice_name,
                           std::uint64_t ts_ns) {
      event_header(w, "B", tid, rel_us(ts_ns, trace.t0_ns));
      w.kv("name", slice_name);
      w.end_object();
      stack.push_back({by, std::move(slice_name)});
    };
    auto end_slice = [&](EventId opened_by, std::uint64_t ts_ns) {
      // Sanitize: only close the slice if it is actually on top; a mismatch
      // means the ring dropped the opening record.
      if (stack.empty() || stack.back().opened_by != opened_by) return;
      event_header(w, "E", tid, rel_us(ts_ns, trace.t0_ns));
      w.kv("name", stack.back().name);
      w.end_object();
      stack.pop_back();
    };

    for (const TraceRecord& r : thread.records) {
      const EventId event = static_cast<EventId>(r.event);
      switch (event) {
        case EventId::kTaskBegin:
          begin_slice(EventId::kTaskBegin,
                      r.a16 == 0 ? "task:core" : "task:batch", r.ts_ns);
          counter_events.push_back({r.ts_ns, kNoCounterDomain, +1});
          break;
        case EventId::kTaskEnd:
          end_slice(EventId::kTaskBegin, r.ts_ns);
          counter_events.push_back({r.ts_ns, kNoCounterDomain, -1});
          break;
        case EventId::kOpSubmit:
          begin_slice(EventId::kOpSubmit, "op wait " + domain_label(r.a16),
                      r.ts_ns);
          counter_events.push_back({r.ts_ns, r.a16, +1});
          break;
        case EventId::kOpResume:
          end_slice(EventId::kOpSubmit, r.ts_ns);
          break;
        case EventId::kFlagWon:
          begin_slice(EventId::kFlagWon, "flag held " + domain_label(r.a16),
                      r.ts_ns);
          break;
        case EventId::kSteal: {
          const bool hit = (r.a16 & kStealSuccess) != 0;
          if (!hit && !options.include_steal_misses) break;
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name",
               std::string(hit ? "steal hit" : "steal miss") +
                   ((r.a16 & kStealKindBatch) != 0 ? " (batch)" : " (core)"));
          w.end_object();
          break;
        }
        case EventId::kCollected:
          if (r.a32 > 0) {
            counter_events.push_back(
                {r.ts_ns, r.a16, -static_cast<std::int32_t>(r.a32)});
          }
          domain_events.push_back({r.ts_ns, r.a16, event, r.a32});
          break;
        case EventId::kLaunchEnter:
        case EventId::kBopDone:
          domain_events.push_back({r.ts_ns, r.a16, event, r.a32});
          break;
        case EventId::kLaunchExit:
          domain_events.push_back({r.ts_ns, r.a16, event, r.a32});
          break;
        case EventId::kFlagReopen:
          // The "flag held" slice spans a whole chain of launches: it closes
          // on the reopen, not on each launch's exit.
          end_slice(EventId::kFlagWon, r.ts_ns);
          break;
        case EventId::kLaunchChained:
          domain_events.push_back({r.ts_ns, r.a16, event, r.a32});
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name", "chained launch #" + std::to_string(r.a32) + " " +
                           domain_label(r.a16));
          w.end_object();
          break;
        case EventId::kAnnouncePush:
          if (!options.include_steal_misses) break;
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name", "announce " + domain_label(r.a16));
          w.end_object();
          break;
        case EventId::kFlagCasFail:
          if (!options.include_steal_misses) break;
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name", "flag CAS lost " + domain_label(r.a16));
          w.end_object();
          break;
        case EventId::kOpTimeout:
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name", "op timeout " + domain_label(r.a16));
          w.end_object();
          counter_events.push_back({r.ts_ns, r.a16, -1});
          break;
        case EventId::kOpShed:
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name", "op shed " + domain_label(r.a16));
          w.end_object();
          break;
        case EventId::kFrameSlabRefill:
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name", "slab refill (class " + std::to_string(r.a16) + ")");
          w.end_object();
          break;
        case EventId::kFrameRemoteFree:
          // One per remotely-freed frame; high volume, so gated like steal
          // misses rather than flooding the default view.
          if (!options.include_steal_misses) break;
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name", "remote free (class " + std::to_string(r.a16) + ")");
          w.end_object();
          break;
        case EventId::kParkBegin:
          begin_slice(EventId::kParkBegin, "parked", r.ts_ns);
          break;
        case EventId::kParkEnd:
          end_slice(EventId::kParkBegin, r.ts_ns);
          break;
        case EventId::kPumpParkBegin:
          begin_slice(EventId::kPumpParkBegin, "pump parked", r.ts_ns);
          break;
        case EventId::kPumpParkEnd:
          end_slice(EventId::kPumpParkBegin, r.ts_ns);
          break;
        case EventId::kJoinWaitBegin:
          // One per parallel_invoke on the spawner's thread; high volume, so
          // gated with the other flood-prone events.
          if (!options.include_steal_misses) break;
          begin_slice(EventId::kJoinWaitBegin, "join wait", r.ts_ns);
          break;
        case EventId::kJoinWaitEnd:
          if (!options.include_steal_misses) break;
          end_slice(EventId::kJoinWaitBegin, r.ts_ns);
          break;
        case EventId::kWorkerStart:
        case EventId::kWorkerExit:
          event_header(w, "i", tid, rel_us(r.ts_ns, trace.t0_ns));
          w.kv("s", "t");
          w.kv("name", event == EventId::kWorkerStart ? "worker start"
                                                      : "worker exit");
          w.end_object();
          break;
        default:
          break;  // observer-only entries never reach a ring
      }
    }
    // Close slices left dangling by drops (or a mid-slice session stop).
    while (!stack.empty()) {
      event_header(w, "E", tid, rel_us(trace.t1_ns, trace.t0_ns));
      w.kv("name", stack.back().name);
      w.end_object();
      stack.pop_back();
    }
  }

  // Batch-lifecycle tracks: replay launches per domain in time order.
  std::stable_sort(domain_events.begin(), domain_events.end(),
                   [](const DomainEvent& a, const DomainEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  struct LaunchState {
    bool open = false;
    std::uint64_t enter_ts = 0;
    bool collected = false;
    std::uint64_t collected_ts = 0;
    std::uint32_t size = 0;
    bool bop_done = false;
    std::uint64_t bop_ts = 0;
  };
  std::vector<LaunchState> launches(256);  // one per possible domain id
  for (const DomainEvent& e : domain_events) {
    if (e.domain >= launches.size()) continue;
    const std::uint64_t tid = kDomainTidBase + e.domain;
    if (std::find(domains_seen.begin(), domains_seen.end(), e.domain) ==
        domains_seen.end()) {
      domains_seen.push_back(e.domain);
      metadata(w, tid, "batcher " + domain_label(e.domain));
    }
    LaunchState& ls = launches[e.domain];
    switch (e.event) {
      case EventId::kLaunchEnter:
        ls = LaunchState{};
        ls.open = true;
        ls.enter_ts = e.ts_ns;
        break;
      case EventId::kCollected:
        if (!ls.open) break;
        complete_event(w, tid, "collect", rel_us(ls.enter_ts, trace.t0_ns),
                       rel_us(e.ts_ns, trace.t0_ns) -
                           rel_us(ls.enter_ts, trace.t0_ns));
        ls.collected = true;
        ls.collected_ts = e.ts_ns;
        ls.size = e.a32;
        break;
      case EventId::kBopDone:
        if (!ls.collected) break;
        complete_event(w, tid, "run", rel_us(ls.collected_ts, trace.t0_ns),
                       rel_us(e.ts_ns, trace.t0_ns) -
                           rel_us(ls.collected_ts, trace.t0_ns));
        ls.bop_done = true;
        ls.bop_ts = e.ts_ns;
        break;
      case EventId::kLaunchExit: {
        if (!ls.open) break;
        if (ls.bop_done) {
          complete_event(w, tid, "complete", rel_us(ls.bop_ts, trace.t0_ns),
                         rel_us(e.ts_ns, trace.t0_ns) -
                             rel_us(ls.bop_ts, trace.t0_ns));
        }
        // Parent slice spanning the whole launch; emitted last so viewers
        // nest the phases inside it by duration.
        event_header(w, "X", tid, rel_us(ls.enter_ts, trace.t0_ns));
        w.kv("dur", rel_us(e.ts_ns, trace.t0_ns) -
                        rel_us(ls.enter_ts, trace.t0_ns));
        w.kv("name", "batch[" + std::to_string(ls.size) + "]");
        w.key("args")
            .begin_object()
            .kv("collected", static_cast<std::uint64_t>(ls.size))
            .kv("done", static_cast<std::uint64_t>(e.a32))
            .end_object();
        w.end_object();
        ls = LaunchState{};
        break;
      }
      case EventId::kLaunchChained:
        // Marks the seam between two launches that share one flag hold.
        event_header(w, "i", tid, rel_us(e.ts_ns, trace.t0_ns));
        w.kv("s", "t");
        w.kv("name", "chain #" + std::to_string(e.a32));
        w.end_object();
        break;
      default:
        break;
    }
  }

  // Counter tracks: replay the merged, time-sorted deltas into step
  // functions.  Depths are clamped at zero — a dropped +1 must not wedge a
  // counter negative for the rest of the render.
  std::stable_sort(counter_events.begin(), counter_events.end(),
                   [](const CounterEvent& a, const CounterEvent& b) {
                     return a.ts_ns < b.ts_ns;
                   });
  std::vector<std::int64_t> pending_depth(256, 0);
  std::int64_t working = 0;
  for (const CounterEvent& e : counter_events) {
    const double ts_us = rel_us(e.ts_ns, trace.t0_ns);
    if (e.domain == kNoCounterDomain) {
      working += e.delta;
      if (working < 0) working = 0;
      counter_sample(w, "workers working", ts_us,
                     static_cast<std::uint64_t>(working));
    } else if (e.domain < pending_depth.size()) {
      std::int64_t& depth = pending_depth[e.domain];
      depth += e.delta;
      if (depth < 0) depth = 0;
      counter_sample(w, "pending " + domain_label(e.domain), ts_us,
                     static_cast<std::uint64_t>(depth));
    }
  }

  w.end_array();
  w.end_object();
  return w.str();
}

bool write_chrome_trace(const Trace& trace, const std::string& path,
                        ChromeTraceOptions options) {
  const std::string body = chrome_trace_json(trace, options);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = written == body.size() && std::fclose(f) == 0;
  if (!ok) std::remove(path.c_str());
  return ok;
}

}  // namespace batcher::trace
