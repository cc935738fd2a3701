// Schedule-observation seam for the runtime and the BATCHER extension.
//
// The worker loop, the steal paths, and the Batcher's LAUNCHBATCH protocol
// emit fine-grained events through `hooks::emit`.  An installed
// `ScheduleObserver` (src/audit) can audit the paper's invariants at every
// event and/or perturb the schedule by pausing inside the callback.  With
// BATCHER_AUDIT=0 (the Release default) `emit` is an empty inline function
// and the whole seam compiles away; with BATCHER_AUDIT=1 an un-installed
// observer costs one relaxed load and a predicted-not-taken branch per hook.
//
// Emission points are placed so that the real synchronization order implies
// the observer callback order: an event that publishes state (e.g. a slot
// status store with release semantics) is emitted *before* the store, so any
// event caused by observing that state is emitted strictly later in wall
// time.  This lets a mutex-serialized observer maintain an exact model of the
// protocol state with no false races.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "runtime/task.hpp"
#include "support/config.hpp"

namespace batcher::rt::hooks {

// Where in the scheduler an event fired.  The `worker` field of HookEvent is
// the worker the event is *about* — for the per-slot status transitions that
// is the slot's owner, which may differ from the thread emitting the event
// (LAUNCHBATCH flips other workers' statuses).
enum class HookPoint : std::uint8_t {
  kWorkerLoop,        // top of a worker's main-loop iteration
  kPush,              // owner-side deque push (deque = task kind)
  kPop,               // owner-side deque pop (deque = kind, value = hit)
  kStealAttempt,      // try_steal (deque = kind, value = success)
  kAlternatingSteal,  // steal_alternating chose `deque` for this attempt
  kTaskRun,           // a task frame is about to run (deque = task kind)
  kBatchifyEnter,     // worker submitted an op record to `domain`
  kBatchifyExit,      // worker resumed from batchify (op done, slot freed)
  kFlagCasWon,        // worker won the domain's batch-flag CAS
  kLaunchEnter,       // LAUNCHBATCH begins on this worker
  kBatchCollected,    // working set compacted (value = ops in the batch)
  kLaunchExit,        // LAUNCHBATCH finished; the flag is about to reopen
  kStatusFreeToPending,
  kStatusPendingToExecuting,
  kStatusExecutingToDone,
  kStatusDoneToFree,
  kAnnouncePush,    // worker pushed its (pending) slot onto the announce list
  kAnnounceClaim,   // the launcher claimed the announce list (one exchange)
  kLaunchChained,   // launcher starts another launch under the same flag hold
                    // (value = chain index, >= 1)
  // ExternalDomain (batcher/external.hpp) ingress-path events.  The subject
  // is an external (non-worker) thread for submit/revoke — worker is
  // kNoWorker and `value` carries the external tid — and the pump's worker
  // for claim.  Each is emitted immediately *before* the status transition it
  // announces, so a perturbing observer can stall a thread exactly inside the
  // revoke races: owner revoke vs pump claim, and owner re-arm vs pump
  // unlink of a revoked, still-linked slot.
  kExternalSubmit,  // external thread about to publish its record: push
                    // from Free or re-arm Revoked -> Pending (value = tid)
  kExternalRevoke,  // external thread about to CAS Pending -> Revoked
                    // (value = tid; deque field unused)
  kExternalClaim,   // pump about to take a linked slot off its list:
                    // Pending -> Executing or Revoked -> Free (value = tid)
  // service::ShardRouter pump parking: a pump has registered as parked
  // (parked++), fenced, and re-scanned every live shard empty, and is about
  // to sleep on the gate's epoch.  domain = the router.  A publish that lands
  // while an observer holds the pump here must still wake it.
  kPumpPark,
};

inline constexpr unsigned kNoWorker = ~0u;

struct HookEvent {
  HookPoint point;
  unsigned worker = kNoWorker;        // subject worker (see HookPoint)
  TaskKind deque = TaskKind::Core;    // deque/task kind, where meaningful
  TaskKind context = TaskKind::Core;  // subject worker's current dag kind
  const void* domain = nullptr;       // Batcher identity for batching events
  std::uint64_t value = 0;            // point-specific payload
};

// Observers are usable (and unit-testable, via synthetic event streams) in
// every build; only the runtime's emission is gated on BATCHER_AUDIT.
class ScheduleObserver {
 public:
  virtual ~ScheduleObserver() = default;
  virtual void on_event(const HookEvent& event) = 0;
};

inline constexpr bool kEnabled = BATCHER_AUDIT != 0;

// The exception type every injected fault throws.  Defined in all builds so
// tests can name it; only audit builds ever throw it.
struct InjectedFault : std::runtime_error {
  using std::runtime_error::runtime_error;
};

#if BATCHER_AUDIT

inline std::atomic<ScheduleObserver*>& observer_slot() {
  static std::atomic<ScheduleObserver*> slot{nullptr};
  return slot;
}

// Install / clear the process-wide observer.  Swapping observers while worker
// threads are live is safe only in the install direction; clear (or destroy
// the observer) strictly after every scheduler that could emit has been
// destroyed or parked.
inline void install_observer(ScheduleObserver* observer) {
  observer_slot().store(observer, std::memory_order_release);
}

inline void emit(const HookEvent& event) {
  ScheduleObserver* observer =
      observer_slot().load(std::memory_order_acquire);
  if (observer != nullptr) [[unlikely]] observer->on_event(event);
}

// Test-only fault switches, for proving the auditor catches broken builds
// and that the failure-recovery paths (DESIGN.md §8) actually recover.
//
// `skip_batch_flag_cas` makes batchify behave, from the observer's point of
// view, like a build that launches batches without taking the batch-flag CAS:
// the kFlagCasWon event is suppressed, so the auditor sees a LAUNCHBATCH from
// a worker that never acquired the flag and must flag Invariant 1.  (Actual
// execution still takes the CAS — a genuinely skipped CAS would corrupt
// memory long before any report could be printed.)
//
// The throw_* members are one-shot countdowns: arming one with N > 0 makes
// the Nth opportunity throw an InjectedFault (fire() decrements; the fault
// fires on the 1 -> 0 edge).  0 means disarmed.  `slow_launcher_spins`
// busy-spins inside LAUNCHBATCH between collect and the BOP, stretching the
// window in which the batch flag is held — the stall the watchdog detects.
struct TestFaults {
  std::atomic<bool> skip_batch_flag_cas{false};
  std::atomic<std::int64_t> throw_in_bop{0};        // before ds.run_batch
  std::atomic<std::int64_t> throw_in_core_task{0};  // joined core task frames
  std::atomic<std::int64_t> throw_in_collect{0};    // per collected slot
  // FramePool allocation-failure injection: the Nth slab refill or global
  // fallback allocation throws std::bad_alloc (not InjectedFault — the point
  // is to exercise the real allocator-failure type through the task-frame
  // exception machinery).  Armed by FaultSchedule's kBadAlloc action.
  std::atomic<std::int64_t> throw_bad_alloc{0};
  std::atomic<std::uint32_t> slow_launcher_spins{0};

  void reset() {
    skip_batch_flag_cas.store(false, std::memory_order_relaxed);
    throw_in_bop.store(0, std::memory_order_relaxed);
    throw_in_core_task.store(0, std::memory_order_relaxed);
    throw_in_collect.store(0, std::memory_order_relaxed);
    throw_bad_alloc.store(0, std::memory_order_relaxed);
    slow_launcher_spins.store(0, std::memory_order_relaxed);
  }
};

inline TestFaults& test_faults() {
  static TestFaults faults;
  return faults;
}

// Decrements an armed countdown; returns true exactly once, when it crosses
// 1 -> 0.  Safe to race from multiple threads.
inline bool fire(std::atomic<std::int64_t>& countdown) {
  std::int64_t v = countdown.load(std::memory_order_relaxed);
  while (v > 0) {
    if (countdown.compare_exchange_weak(v, v - 1, std::memory_order_relaxed)) {
      return v == 1;
    }
  }
  return false;
}

#else  // !BATCHER_AUDIT

inline void install_observer(ScheduleObserver*) {}
inline void emit(const HookEvent&) {}

#endif  // BATCHER_AUDIT

}  // namespace batcher::rt::hooks
