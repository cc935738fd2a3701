// The runtime's one event seam: `hooks::emit`, called once per event site
// by the worker loop, the steal paths, the frame pool, the Batcher's
// LAUNCHBATCH protocol, ExternalDomain and the service router.  The event
// vocabulary, the placement rule and which consumers each entry reaches are
// in trace/event.hpp.
//
// With BATCHER_AUDIT=0 (the Release default) the observer half compiles away;
// with BATCHER_AUDIT=1 an un-installed observer costs one acquire load and a
// predicted-not-taken branch per observer-bound event.  The ring half costs
// one relaxed load and a predicted-not-taken branch per ring-bound event in
// every build while no TraceSession is open.
#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "support/config.hpp"
#include "trace/event.hpp"
#include "trace/trace.hpp"

namespace batcher::rt {

// Invariant 3 of the paper: every ready node lives on a core deque or a batch
// deque according to which dag it belongs to.  TaskKind is that tag (defined
// here, below task.hpp, because events carry it).
enum class TaskKind : std::uint8_t { Core = 0, Batch = 1 };
inline constexpr int kNumTaskKinds = 2;

}  // namespace batcher::rt

namespace batcher::rt::hooks {

using trace::EventId;

inline constexpr unsigned kNoWorker = trace::kNoWorkerId;

// One event.  The observer sees every field; the ring record takes a16/a32
// from them as the entry's kEvents row says (trace/event.hpp).
struct Event {
  EventId id;
  unsigned worker = kNoWorker;        // subject worker
  TaskKind deque = TaskKind::Core;    // deque/task kind, where meaningful
  TaskKind context = TaskKind::Core;  // subject worker's current dag kind
  const void* domain = nullptr;       // Batcher, ExternalDomain or router
  std::uint64_t value = 0;            // entry-specific payload
  std::uint16_t domain_id = 0;        // trace::register_domain id of `domain`
};

// Observers are usable (and unit-testable, via synthetic event streams) in
// every build; only the runtime's emission is gated on BATCHER_AUDIT.
class ScheduleObserver {
 public:
  virtual ~ScheduleObserver() = default;
  virtual void on_event(const Event& event) = 0;
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

// Test-only fault switches, for proving the auditor catches broken builds
// and that the failure-recovery paths (DESIGN.md §8) actually recover.
//
// `skip_batch_flag_cas` makes batchify behave, from the observer's point of
// view, like a build that launches batches without taking the batch-flag CAS:
// the observer does not see kFlagWon, so the auditor sees a LAUNCHBATCH from
// a worker that never acquired the flag and must flag Invariant 1.  The ring
// still records it: the trace reports what the schedule actually did.
// (Actual execution still takes the CAS — a genuinely skipped CAS would
// corrupt memory long before any report could be printed.)
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

inline void deliver(const Event& event) {
  if (event.id == EventId::kFlagWon &&
      test_faults().skip_batch_flag_cas.load(std::memory_order_relaxed)) {
    return;
  }
  ScheduleObserver* observer =
      observer_slot().load(std::memory_order_acquire);
  if (observer != nullptr) [[unlikely]] observer->on_event(event);
}

#else  // !BATCHER_AUDIT

inline void install_observer(ScheduleObserver*) {}

#endif  // BATCHER_AUDIT

inline std::uint16_t ring_a16(const Event& event, trace::A16 how) {
  switch (how) {
    case trace::A16::kKind:
      return static_cast<std::uint16_t>(event.deque);
    case trace::A16::kSteal:
      return static_cast<std::uint16_t>(
          (event.deque == TaskKind::Batch ? trace::kStealKindBatch : 0) |
          (event.value != 0 ? trace::kStealSuccess : 0));
    case trace::A16::kDomain:
      return event.domain_id;
    case trace::A16::kValue:
      return static_cast<std::uint16_t>(event.value);
    case trace::A16::kZero:
      break;
  }
  return 0;
}

// The one call every event site makes.  Always inlined, so with the constant
// `id` of a site the kEvents lookups fold away: a site pays only for the
// consumers its entry reaches, and an untraced Release site is one relaxed
// load and a predicted-not-taken branch, as when the ring push was written
// out at the site.
[[gnu::always_inline]] inline void emit(const Event& event) {
  const trace::EventInfo& info = trace::event_info(event.id);
#if BATCHER_AUDIT
  if ((info.sinks & trace::kToObserver) != 0) deliver(event);
#endif
  if ((info.sinks & trace::kToRing) != 0 && trace::enabled()) [[unlikely]] {
    trace::record(event.worker, event.id, ring_a16(event, info.a16),
                  info.a32_is_value ? static_cast<std::uint32_t>(event.value)
                                    : 0);
  }
}

}  // namespace batcher::rt::hooks
