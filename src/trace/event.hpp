// The one event vocabulary of the runtime's observation seam.
//
// Every event site makes one call, `rt::hooks::emit` (runtime/
// schedule_hooks.hpp), naming one entry of EventId.  Two consumers watch the
// same program points:
//
//   observer  the installed rt::hooks::ScheduleObserver (src/audit).  It
//             *checks* the protocol — the Fig. 3 status machine, Invariants
//             1-3, alternating steals — and may perturb the schedule by
//             pausing inside its callback.  Only BATCHER_AUDIT builds deliver
//             to it; in Release that half of emit compiles away.
//   ring      the emitting thread's trace ring (trace.hpp), while a
//             TraceSession is open.  It *measures* the protocol: every record
//             carries a nanosecond timestamp, so a drained trace shows when
//             each Theorem 1 quantity happened, not just how often.
//
// kEvents says, per entry, which consumers it reaches and how the entry's
// fields fill the 16-byte ring record.  It is a fact about each event, not a
// setting.
//
// Placement rule (DESIGN.md §6): an event that announces a state change is
// emitted *before* the store that publishes the state, so any event caused by
// observing that state is emitted strictly later in wall time.  A
// mutex-serialized observer can then keep an exact model of the protocol
// state with no false races.
//
// Observer fields (rt::hooks::Event): `worker` is the worker the event is
// *about* — for the status transitions that is the slot's owner, which may
// differ from the emitting thread (LAUNCHBATCH flips other workers'
// statuses); `deque` is the deque or task kind where meaningful; `context` is
// the subject's current dag kind; `domain` the Batcher/ExternalDomain/
// ShardRouter the event belongs to; `value` is per entry (below).  The ring
// takes `worker` as the emitting thread's id when it registers the thread's
// ring.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace batcher::trace {

// Consumers an entry reaches.
inline constexpr std::uint8_t kToObserver = 1;
inline constexpr std::uint8_t kToRing = 2;
inline constexpr std::uint8_t kToBoth = kToObserver | kToRing;

// What fills a ring record's a16.  Its a32 is `value` where the entry says
// so, else 0.
enum class A16 : std::uint8_t {
  kZero,
  kKind,    // deque: 0 core, 1 batch
  kSteal,   // bit0 deque is batch, bit1 value != 0 (the steal succeeded)
  kDomain,  // domain_id (register_domain)
  kValue,   // value
};

inline constexpr std::uint16_t kStealKindBatch = 1;  // kSteal a16 bit 0
inline constexpr std::uint16_t kStealSuccess = 2;    // kSteal a16 bit 1

// Every entry, one line each: X(entry, name, sinks, a16, a32 is value).  The
// comments give the program point and the meaning of `value`.
#define BATCHER_EVENTS(X)                                                    \
  X(kNone, "none", 0, kZero, false)                                          \
  /* A worker thread entered / left its main loop.  kWorkerStart is emitted  \
     only when a session is already open at thread start; attribution then   \
     opens the thread's accountable window there, and kWorkerExit closes    \
     it. */                                                                  \
  X(kWorkerStart, "worker-start", kToRing, kZero, false)                     \
  X(kWorkerExit, "worker-exit", kToRing, kZero, false)                       \
  /* Top of a worker's main-loop iteration. */                               \
  X(kWorkerLoop, "worker-loop", kToObserver, kZero, false)                   \
  /* The between-runs park on the scheduler's condition variable. */         \
  X(kParkBegin, "park-begin", kToRing, kZero, false)                         \
  X(kParkEnd, "park-end", kToRing, kZero, false)                             \
  /* Owner-side deque push and pop (deque = kind; pop value = hit). */       \
  X(kPush, "push", kToObserver, kZero, false)                                \
  X(kPop, "pop", kToObserver, kZero, false)                                  \
  /* steal_alternating aimed this attempt at `deque` (§4). */                \
  X(kAlternatingSteal, "alternating-steal", kToObserver, kZero, false)       \
  /* try_steal on `deque` (value = success). */                              \
  X(kSteal, "steal", kToBoth, kSteal, false)                                 \
  /* A task frame is about to run / has run (deque = its kind).  A task an   \
     injected fault kills before it runs emits neither. */                   \
  X(kTaskBegin, "task-begin", kToBoth, kKind, false)                         \
  X(kTaskEnd, "task-end", kToRing, kKind, false)                             \
  /* Worker::wait blocked at a join, helping/stealing (attribution: steal;   \
     the tasks it helps with open their own kTaskBegin windows). */          \
  X(kJoinWaitBegin, "join-wait-begin", kToRing, kZero, false)                \
  X(kJoinWaitEnd, "join-wait-end", kToRing, kZero, false)                    \
  /* FramePool slab refill (ring = owning worker) and remote free (ring =    \
     freeing thread); value = size class. */                                 \
  X(kFrameSlabRefill, "frame-slab-refill", kToRing, kValue, false)           \
  X(kFrameRemoteFree, "frame-remote-free", kToRing, kValue, false)           \
  /* batchify: the worker submits an op record to `domain`. */               \
  X(kOpSubmit, "op-submit", kToBoth, kDomain, false)                         \
  /* Slot status transitions of Fig. 3 (worker = the slot's owner). */       \
  X(kStatusFreeToPending, "status free->pending", kToObserver, kZero, false) \
  /* The worker pushes its pending slot onto the announce list. */           \
  X(kAnnouncePush, "announce-push", kToBoth, kDomain, false)                 \
  /* The worker won the batch-flag CAS, opening the flag-held window. */     \
  X(kFlagWon, "flag-won", kToBoth, kDomain, false)                           \
  /* The worker lost the batch-flag CAS race. */                             \
  X(kFlagCasFail, "flag-cas-fail", kToRing, kDomain, false)                  \
  X(kStatusDoneToFree, "status done->free", kToObserver, kZero, false)       \
  /* The worker resumed from batchify (op done, slot freed). */              \
  X(kOpResume, "op-resume", kToBoth, kDomain, false)                         \
  /* LAUNCHBATCH begins on this worker. */                                   \
  X(kLaunchEnter, "launch-enter", kToBoth, kDomain, false)                   \
  /* The launcher claims the announce list (one exchange). */                \
  X(kAnnounceClaim, "announce-claim", kToObserver, kZero, false)             \
  X(kStatusPendingToExecuting, "status pending->executing", kToObserver,     \
    kZero, false)                                                            \
  /* Working set compacted / the BOP returned (value = ops in the batch). */ \
  X(kCollected, "collected", kToBoth, kDomain, true)                         \
  X(kBopDone, "bop-done", kToRing, kDomain, true)                            \
  X(kStatusExecutingToDone, "status executing->done", kToObserver, kZero,    \
    false)                                                                   \
  /* LAUNCHBATCH finished (value = ops carried to done), before the flag     \
     reopens; a chained launch keeps the flag past it. */                    \
  X(kLaunchExit, "launch-exit", kToBoth, kDomain, true)                      \
  /* The flag is about to reopen; closes the window kFlagWon opened. */      \
  X(kFlagReopen, "flag-reopen", kToRing, kDomain, false)                     \
  /* The launcher starts another launch under the same flag hold (value =    \
     chain index, >= 1). */                                                  \
  X(kLaunchChained, "launch-chained", kToBoth, kDomain, true)                \
  /* ExternalDomain ingress, each emitted just before the status transition  \
     it announces, so a perturbing observer can stall a thread inside the    \
     revoke races.  An external submitter is no worker: worker = kNoWorker,  \
     value = its tid.  Submit pushes from Free or re-arms Revoked ->         \
     Pending; revoke CASes Pending -> Revoked; claim is the pump (a worker)  \
     taking a linked slot off its list, Pending -> Executing or Revoked ->   \
     Free (value = slot index). */                                           \
  X(kExternalSubmit, "external-submit", kToObserver, kZero, false)           \
  X(kExternalRevoke, "external-revoke", kToObserver, kZero, false)           \
  X(kExternalClaim, "external-claim", kToObserver, kZero, false)             \
  /* An external submit revoked its record at its deadline, or was refused   \
     at the shed threshold (ring = the submitting thread). */                \
  X(kOpTimeout, "op-timeout", kToRing, kDomain, false)                       \
  X(kOpShed, "op-shed", kToRing, kDomain, false)                             \
  /* A service::ShardRouter pump registered as parked, re-scanned every      \
     shard empty and is about to sleep on the gate (domain = the router); a  \
     publish that lands while an observer holds it here must still wake it.  \
     Attribution: parked, though the pump task is still running. */          \
  X(kPumpParkBegin, "pump-park-begin", kToBoth, kZero, false)                \
  X(kPumpParkEnd, "pump-park-end", kToRing, kZero, false)

#define BATCHER_EVENT_ID(id, name, sinks, a16, a32) id,
enum class EventId : std::uint16_t { BATCHER_EVENTS(BATCHER_EVENT_ID) };
#undef BATCHER_EVENT_ID

struct EventInfo {
  std::string_view name;
  std::uint8_t sinks;
  A16 a16;
  bool a32_is_value;
};

#define BATCHER_EVENT_INFO(id, name, sinks, a16, a32) \
  {name, sinks, A16::a16, a32},
inline constexpr EventInfo kEvents[] = {BATCHER_EVENTS(BATCHER_EVENT_INFO)};
#undef BATCHER_EVENT_INFO
#undef BATCHER_EVENTS

inline constexpr std::size_t kNumEvents = std::size(kEvents);

constexpr const EventInfo& event_info(EventId id) {
  return kEvents[static_cast<std::size_t>(id)];
}

// ---------------------------------------------------------------------------
// Windows: the begin/end pairs the trace readers measure.  Each row names the
// entry that opens the window and the entry that closes it, the worker-time
// bucket it is charged to (metrics.hpp), the MetricsReport histogram its
// lengths feed, and where the Chrome export draws it.  build_metrics and
// chrome_trace_json read every pairing from this one list through one
// per-thread replay (replay.hpp).  A row that shares an edge with another
// comes after the window it nests in: a record closes its windows innermost
// first and then opens its windows outermost first.

// Where a worker's time inside the window goes (kNone: the enclosing one's).
enum class Bucket : std::uint8_t {
  kNone, kUseful, kSteal, kTrapped, kFlagWait, kParked
};
// MetricsReport's histogram of the window's lengths.
enum class Hist : std::uint8_t {
  kNone, kOpLatency, kFlagHeld, kCollect, kRun, kComplete
};
// Chrome track: the emitting thread's (B/E slices) or the domain's (X
// slices inside the launch's batch[n] parent).  Suffix says what follows the
// slice label: the task kind, or the domain of the opening record.
enum class Track : std::uint8_t { kNone, kWorker, kDomain };
enum class Suffix : std::uint8_t { kNone, kKind, kDomain };

// X(window, opener, closer, bucket, hist, track, label, suffix)
#define BATCHER_WINDOWS(X)                                                    \
  X(kTask, kTaskBegin, kTaskEnd, kUseful, kNone, kWorker, "task:", kKind)     \
  X(kJoinWait, kJoinWaitBegin, kJoinWaitEnd, kSteal, kNone, kNone, "", kNone) \
  X(kOpWait, kOpSubmit, kOpResume, kTrapped, kOpLatency, kWorker, "op wait ", \
    kDomain)                                                                  \
  X(kFlagHeld, kFlagWon, kFlagReopen, kFlagWait, kFlagHeld, kWorker,          \
    "flag held ", kDomain)                                                    \
  /* LAUNCHBATCH and its three phases.  kLaunchExit also ends a collect or  \
     run phase a failed or empty launch leaves open, without a sample; an   \
     empty batch's run window charges no bucket (it runs no BOP). */        \
  X(kLaunch, kLaunchEnter, kLaunchExit, kNone, kNone, kDomain, "batch", kNone) \
  X(kCollect, kLaunchEnter, kCollected, kNone, kCollect, kDomain, "collect",  \
    kNone)                                                                    \
  X(kRun, kCollected, kBopDone, kUseful, kRun, kDomain, "run", kNone)         \
  X(kComplete, kBopDone, kLaunchExit, kNone, kComplete, kDomain, "complete",  \
    kNone)                                                                    \
  X(kPark, kParkBegin, kParkEnd, kParked, kNone, kWorker, "parked", kNone)    \
  X(kPumpPark, kPumpParkBegin, kPumpParkEnd, kParked, kNone, kWorker,         \
    "pump parked", kNone)

#define BATCHER_WINDOW_ID(w, open, close, bucket, hist, track, label, suffix) w,
enum class Window : std::uint8_t { BATCHER_WINDOWS(BATCHER_WINDOW_ID) };
#undef BATCHER_WINDOW_ID

struct WindowInfo {
  EventId opener;
  EventId closer;
  Bucket bucket;
  Hist hist;
  Track track;
  std::string_view label;
  Suffix suffix;
};

#define BATCHER_WINDOW_INFO(w, open, close, bucket, hist, track, label, \
                            suffix)                                     \
  {EventId::open,  EventId::close, Bucket::bucket, Hist::hist,          \
   Track::track,   label,          Suffix::suffix},
inline constexpr WindowInfo kWindows[] = {BATCHER_WINDOWS(BATCHER_WINDOW_INFO)};
#undef BATCHER_WINDOW_INFO
#undef BATCHER_WINDOWS

inline constexpr std::size_t kNumWindows = std::size(kWindows);

constexpr const WindowInfo& window_info(Window w) {
  return kWindows[static_cast<std::size_t>(w)];
}

}  // namespace batcher::trace
