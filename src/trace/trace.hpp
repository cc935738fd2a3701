// Always-on tracing layer: per-thread trace rings + the TraceSession that
// collects them.
//
// The ring is one of the two consumers of the event seam (event.hpp).  Unlike
// the observer, it is compiled into every build, including Release: with no
// session active, every ring-bound event site costs exactly one relaxed load
// and a predicted-not-taken branch (`trace::enabled()`).  With a session
// active, an event is a timestamp read plus a ring push (two relaxed stores
// and a release store) into a ring the emitting thread owns — no sharing, no
// locks, no allocation on the hot path.
//
// Lifecycle and memory-ordering contract (DESIGN.md §9):
//
//  * Rings are thread-local and registered in a process-wide registry on the
//    thread's first traced emission.  A registry entry is shared ownership
//    (thread + registry), so a ring outlives its thread and a session can
//    drain events from workers whose Scheduler has already been destroyed.
//    Dead threads' rings are pruned once drained.
//  * TraceSession construction resets live rings and publishes enabled=true
//    (release).  An emitting thread that observes enabled=true (relaxed is
//    enough: rings are reset only between sessions, when their records are
//    dead) writes records tagged with its steady_clock timestamp.
//  * TraceSession::stop() publishes enabled=false and then drains.  A writer
//    mid-push can complete one trailing record; the ring's seqlock-style
//    drain (trace_ring.hpp) makes the concurrent read race-free, and no
//    ring memory is ever freed while its thread lives, so there is no
//    use-after-free window at all.
//  * At most one session exists at a time (asserted).
//
// The layer deliberately does not depend on the runtime: event sites pass
// their worker id in, so src/trace sits next to src/support at the bottom of
// the dependency stack and the runtime/batcher link against it.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/trace_clock.hpp"
#include "trace/trace_record.hpp"
#include "trace/trace_ring.hpp"

namespace batcher::trace {

inline constexpr unsigned kNoWorkerId = ~0u;

namespace detail {

struct RingHandle {
  TraceRing ring;
  std::uint64_t serial = 0;         // process-wide registration order
  unsigned worker_id = kNoWorkerId; // rt worker id at first emission
};

inline std::atomic<bool> g_enabled{false};
inline thread_local RingHandle* t_ring = nullptr;

// Registers the calling thread's ring (defined in trace.cpp).
RingHandle* register_thread(unsigned worker_id);

}  // namespace detail

// The one check every ring-bound event site performs (inside
// rt::hooks::emit); other code that only runs while a session is open, such
// as the bound ledger's strand bookkeeping, guards on it too.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}

// Appends one record to the calling thread's ring.  Event sites reach it
// through rt::hooks::emit, which fills a16/a32 from the event's kEvents row.
inline void record(unsigned worker, EventId event, std::uint16_t a16 = 0,
                   std::uint32_t a32 = 0) {
  if (!enabled()) return;
  detail::RingHandle* h = detail::t_ring;
  if (h == nullptr) h = detail::register_thread(worker);
  h->ring.push(event, a16, a32, now_ns());
}

// Small stable ids for batching domains, so a 16-byte record can name the
// Batcher an event belongs to.  A Batcher registers itself at construction
// and unregisters at destruction; ids are reused after unregistration.
std::uint16_t register_domain(const void* domain);
void unregister_domain(const void* domain);

// ---------------------------------------------------------------------------
// Drained traces.

struct TraceThread {
  std::uint64_t serial = 0;
  unsigned worker_id = kNoWorkerId;
  std::uint64_t dropped = 0;
  std::vector<TraceRecord> records;  // timestamp-monotonic
};

struct Trace {
  std::uint64_t t0_ns = 0;  // session start / stop timestamps
  std::uint64_t t1_ns = 0;
  std::vector<TraceThread> threads;

  double wall_seconds() const {
    return t1_ns <= t0_ns ? 0.0
                          : static_cast<double>(t1_ns - t0_ns) / 1e9;
  }
  std::uint64_t total_records() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.records.size();
    return n;
  }
  std::uint64_t dropped_records() const {
    std::uint64_t n = 0;
    for (const auto& t : threads) n += t.dropped;
    return n;
  }
};

// RAII collection window.  Constructing enables tracing process-wide;
// `stop()` (or destruction) disables it and drains every ring.
class TraceSession {
 public:
  struct Options {
    // Records per thread ring (rounded up to a power of two, 16 B each).
    // Applies to rings created during this session; rings of still-live
    // threads keep the capacity they were created with.
    std::size_t ring_capacity = std::size_t{1} << 20;
  };

  TraceSession() : TraceSession(Options{}) {}
  explicit TraceSession(Options options);
  ~TraceSession();

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  // Disables collection and drains every ring; idempotent.  Threads are
  // ordered by registration serial.
  const Trace& stop();
  bool stopped() const { return stopped_; }

  // The drained trace (stops the session if still running).
  const Trace& trace() { return stop(); }

 private:
  Trace trace_;
  bool stopped_ = false;
};

}  // namespace batcher::trace
