#include "trace/chrome_trace.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "trace/replay.hpp"

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

std::string domain_label(std::uint16_t id) {
  return "d" + std::to_string(id);
}

void instant(json::Writer& w, std::uint64_t tid, double ts_us,
             const std::string& name) {
  event_header(w, "i", tid, ts_us);
  w.kv("s", "t");
  w.kv("name", name);
  w.end_object();
}

// The instant a record draws on its thread's track, or "" for none.
std::string instant_name(const TraceRecord& r) {
  switch (static_cast<EventId>(r.event)) {
    case EventId::kSteal:
      if ((r.a16 & kStealSuccess) == 0) return {};
      return (r.a16 & kStealKindBatch) != 0 ? "steal hit (batch)"
                                            : "steal hit (core)";
    case EventId::kLaunchChained:
      return "chained launch #" + std::to_string(r.a32) + " " +
             domain_label(r.a16);
    case EventId::kOpTimeout:
      return "op timeout " + domain_label(r.a16);
    case EventId::kOpShed:
      return "op shed " + domain_label(r.a16);
    case EventId::kFrameSlabRefill:
      return "slab refill (class " + std::to_string(r.a16) + ")";
    case EventId::kWorkerStart:
      return "worker start";
    case EventId::kWorkerExit:
      return "worker exit";
    default:
      return {};
  }
}

// Records that belong to a domain track: edges of its windows, and the seam
// of a chained launch.
constexpr bool on_domain_track(EventId e) {
  if (e == EventId::kLaunchChained) return true;
  for (const WindowInfo& w : kWindows) {
    if (w.track == Track::kDomain && (w.opener == e || w.closer == e)) {
      return true;
    }
  }
  return false;
}

// One thread's slices, fed by its WindowReplay: B/E pairs on the thread's
// track, and X slices on the track of the domain the thread launches.
// Invariant 1 (one launch at a time per domain) and a worker launching only
// the domain it is trapped on make the launcher's own replay see every
// launch whole, so the domain tracks need no cross-thread merge.
struct SliceWriter {
  json::Writer& w;
  std::uint64_t t0;
  std::uint64_t t1;
  std::uint64_t tid;
  WindowReplay replay;
  std::uint32_t batch_size = 0;  // the open launch's kCollected count

  double us(std::uint64_t ts_ns) const { return rel_us(ts_ns, t0); }

  static std::string name(const OpenWindow& o) {
    const WindowInfo& info = window_info(o.window);
    std::string n(info.label);
    if (info.suffix == Suffix::kKind) n += o.open.a16 == 0 ? "core" : "batch";
    if (info.suffix == Suffix::kDomain) n += domain_label(o.open.a16);
    return n;
  }

  void opened(const OpenWindow& o) {
    if (o.window == Window::kLaunch) batch_size = 0;
    if (window_info(o.window).track != Track::kWorker) return;
    event_header(w, "B", tid, us(o.open.ts_ns));
    w.kv("name", name(o));
    w.end_object();
  }

  // Every worker-track slice gets its E (at the session end if its thread's
  // records ended first); a domain slice is drawn only when its closer
  // arrived inside a launch whose enter was kept.
  void closed(const OpenWindow& o, const TraceRecord* closer, End how) {
    const Track track = window_info(o.window).track;
    if (track == Track::kWorker) {
      event_header(w, "E", tid, us(closer != nullptr ? closer->ts_ns : t1));
      w.kv("name", name(o));
      w.end_object();
      return;
    }
    if (track != Track::kDomain || how != End::kPaired) return;
    if (o.window == Window::kCollect) batch_size = closer->a32;
    const bool launch = o.window == Window::kLaunch;
    if (!launch && !replay.is_open(Window::kLaunch)) return;
    const double start = us(o.open.ts_ns);
    event_header(w, "X", kDomainTidBase + o.open.a16, start);
    w.kv("dur", us(closer->ts_ns) - start);
    if (!launch) {
      w.kv("name", name(o));
    } else {
      // The parent slice, emitted after its phases so viewers nest them.
      w.kv("name", "batch[" + std::to_string(batch_size) + "]");
      w.key("args")
          .begin_object()
          .kv("collected", static_cast<std::uint64_t>(batch_size))
          .kv("done", static_cast<std::uint64_t>(closer->a32))
          .end_object();
    }
    w.end_object();
  }

  void orphan(Window, const TraceRecord&) {}
};

}  // namespace

std::string chrome_trace_json(const Trace& trace) {
  json::Writer w;
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();

  process_metadata(w);

  std::vector<std::uint16_t> domains_seen;
  std::vector<CounterEvent> counter_events;

  for (const TraceThread& thread : trace.threads) {
    const std::uint64_t tid = thread.serial;
    metadata(w, tid,
             thread.worker_id == kNoWorkerId
                 ? "external-tid-" + std::to_string(thread.serial)
                 : "worker-" + std::to_string(thread.worker_id));
    SliceWriter slices{w, trace.t0_ns, trace.t1_ns, tid, {}};
    for (const TraceRecord& r : thread.records) {
      const EventId event = static_cast<EventId>(r.event);
      const double ts_us = rel_us(r.ts_ns, trace.t0_ns);
      if (on_domain_track(event) &&
          std::find(domains_seen.begin(), domains_seen.end(), r.a16) ==
              domains_seen.end()) {
        domains_seen.push_back(r.a16);
        metadata(w, kDomainTidBase + r.a16, "batcher " + domain_label(r.a16));
      }
      slices.replay.step(r, slices);
      if (const std::string name = instant_name(r); !name.empty()) {
        instant(w, tid, ts_us, name);
      }
      switch (event) {
        case EventId::kTaskBegin:
          counter_events.push_back({r.ts_ns, kNoCounterDomain, +1});
          break;
        case EventId::kTaskEnd:
          counter_events.push_back({r.ts_ns, kNoCounterDomain, -1});
          break;
        case EventId::kOpSubmit:
          counter_events.push_back({r.ts_ns, r.a16, +1});
          break;
        case EventId::kCollected:
          if (r.a32 > 0) {
            counter_events.push_back(
                {r.ts_ns, r.a16, -static_cast<std::int32_t>(r.a32)});
          }
          break;
        case EventId::kOpTimeout:
          counter_events.push_back({r.ts_ns, r.a16, -1});
          break;
        case EventId::kLaunchChained:
          // Marks the seam between two launches that share one flag hold.
          instant(w, kDomainTidBase + r.a16, ts_us,
                  "chain #" + std::to_string(r.a32));
          break;
        default:
          break;
      }
    }
    // Close slices left dangling by drops (or a mid-slice session stop).
    slices.replay.finish(slices);
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

bool write_chrome_trace(const Trace& trace, const std::string& path) {
  const std::string body = chrome_trace_json(trace);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = written == body.size() && std::fclose(f) == 0;
  if (!ok) std::remove(path.c_str());
  return ok;
}

}  // namespace batcher::trace
