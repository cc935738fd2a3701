// ExternalDomain — the paper's concluding suggestion (§8): "a pthreaded
// program could run as normal, with data-structure calls replaced by BATCHER
// calls, allowing work-stealing to operate over the data structure batches
// while static pthreading operates over the main program."
//
// External (non-worker) threads publish operation records into a slot array,
// exactly like workers publish into the pending array; a *pump* task running
// inside the scheduler gathers them into batches of at most `batch_cap`
// records and executes the structure's BOP as a batch dag — so the batch
// itself is accelerated by work stealing even though the callers are plain
// threads.  One pump per domain at a time preserves Invariant 1; the cap
// preserves the spirit of Invariant 2.
//
// Graceful degradation (DESIGN.md §13).  A service front-end must bound
// every wait and shed load it cannot absorb, so on top of the DESIGN.md §8
// failure semantics (a throwing BOP fails exactly its batch; shutdown()
// bounds every blocked submit) this domain offers:
//
//  * Deadlines: `submit_until` / `try_submit` revoke a still-Pending record
//    through the same Pending->Free CAS the shutdown path uses and throw
//    OpTimedOut.  A record the pump has already claimed is in a batch and
//    will complete — the deadline bounds time-to-claim, never abandons an
//    executing op (the record lives on the caller's stack).
//  * Overload shedding: when the published-but-unresolved depth is at
//    `shed_threshold`, submissions fail fast with DomainOverloaded *before*
//    publishing, so the backlog is bounded and a rejected caller can back
//    off.  `submit_with_retry` layers a seeded, jittered exponential backoff
//    (RetryPolicy) over that rejection.
//  * Quarantine: `quarantine()` is the escalation hook for a wedged domain
//    (see StallWatchdog::set_escalation_handler) — it closes the domain and
//    fails every still-Pending record through the legal status edges, from
//    any thread, exactly as the pump's exit drain does.
//
// Every published record resolves exactly one way, counted owner-side:
//   ops_served == ops_succeeded + ops_failed + ops_timed_out
// (`ops_shed` counts refusals that never published, outside the identity;
// the bench validator enforces it at quiescence).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "batcher/op_record.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "support/backoff.hpp"
#include "support/config.hpp"
#include "support/padded.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace batcher {

// Thrown by ExternalDomain::submit when the domain has been shut down before
// the operation could be applied.  The operation had no effect.
struct DomainClosed : std::runtime_error {
  DomainClosed() : std::runtime_error("batcher: ExternalDomain is shut down") {}

 protected:
  explicit DomainClosed(const char* what) : std::runtime_error(what) {}
};

// Thrown when the domain was closed by quarantine() — a watchdog-escalation
// shutdown of a wedged domain — rather than an orderly shutdown().  Derives
// DomainClosed so existing handlers keep working.
struct DomainQuarantined : DomainClosed {
  DomainQuarantined()
      : DomainClosed("batcher: ExternalDomain was quarantined") {}
};

// Thrown by submit_until / try_submit when the deadline passed before the
// pump claimed the record.  The operation had no effect.
struct OpTimedOut : std::runtime_error {
  OpTimedOut()
      : std::runtime_error("batcher: external op timed out before claim") {}
};

// Thrown by submit paths when pending depth is at the shed threshold.  The
// operation was never published and had no effect; retrying later is safe.
struct DomainOverloaded : std::runtime_error {
  DomainOverloaded()
      : std::runtime_error("batcher: ExternalDomain is overloaded") {}
};

// Client-side retry discipline for DomainOverloaded rejections: seeded,
// jittered exponential backoff (spin counts, like support/backoff.hpp, so a
// retry storm cannot oversleep a draining domain).  Attempt k waits a
// uniform draw from [full/2, full] where full = min(base_spins << k,
// max_spins) — the classic "decorrelated-ish" jitter that keeps rejected
// clients from re-colliding in lockstep.
struct RetryPolicy {
  std::uint64_t seed = 1;        // per-client stream; tid is mixed in
  unsigned max_retries = 8;      // rethrows DomainOverloaded after these
  std::uint32_t base_spins = 128;
  std::uint32_t max_spins = std::uint32_t{1} << 16;
};

// The parking gate a multi-domain pump front-end (service::ShardRouter) shares
// with its domains.  At most one pump spins (`spinning` is 0 or 1); the others
// sleep in `epoch.wait` and `parked` counts them.  A submit that publishes its
// record, fences, and then finds no spinner but a parked pump bumps `epoch`
// and wakes one.  The fence pairs with the pump's parked++ / fence / re-scan
// before it waits (a Dekker pairing): either the pump's re-scan sees the
// Pending record, or the submitter sees parked != 0 and wakes it.  The pump
// reads `epoch` before it registers, so a bump that lands after that read
// makes its wait return at once.
struct PumpGate {
  std::atomic<std::uint32_t> spinning{0};
  std::atomic<std::uint32_t> parked{0};
  std::atomic<std::uint32_t> epoch{0};

  // Submit side, after the Pending store.  With a spinner present this is a
  // fence and two loads: the client never enters the kernel.
  void after_publish() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (spinning.load() == 0 && parked.load() != 0) {
      epoch.fetch_add(1);
      epoch.notify_one();
    }
  }

  // Shutdown, quarantine, or the last shard retiring: every parked pump must
  // re-scan.
  void wake_all() {
    epoch.fetch_add(1);
    epoch.notify_all();
  }
};

// Quiescent-state counter snapshot (see the identity in the header comment).
struct ExternalStats {
  std::uint64_t ops_served = 0;     // published records that resolved
  std::uint64_t ops_succeeded = 0;  // Done without error
  std::uint64_t ops_failed = 0;     // Done with error, or shutdown-revoked
  std::uint64_t ops_timed_out = 0;  // deadline-revoked before claim
  std::uint64_t ops_shed = 0;       // refused before publication
  std::uint64_t batches_served = 0;
  std::uint64_t batches_failed = 0;
  std::uint64_t retries_attempted = 0;
};

class ExternalDomain {
 public:
  struct Options {
    // Max records per pump batch; 0 means the scheduler's worker count
    // (Invariant 2's P).
    std::size_t batch_cap = 0;
    // Fail submissions fast once this many records are published but not yet
    // resolved; 0 disables shedding.
    std::size_t shed_threshold = 0;
    // Called roughly every 1024 spin iterations of a blocked submit — the
    // seam that wires StallWatchdog::check_now() into the external wait
    // without making the data-structure layer depend on src/audit.  Must be
    // callable from any submitting thread concurrently.
    std::function<void()> stall_probe;
  };

  // `max_threads` bounds the number of external threads that may submit
  // concurrently; thread `tid` must be in [0, max_threads).  `gate` is the
  // parking gate of the front-end whose pumps serve this domain (null for a
  // domain pumped by its own serve()).  Throws std::invalid_argument if
  // `max_threads` is 0: such a domain could never accept a submission, and
  // the pump's slot scan divides by it.
  ExternalDomain(rt::Scheduler& sched, BatchedStructure& ds,
                 std::size_t max_threads, Options options,
                 PumpGate* gate = nullptr)
      : sched_(sched),
        ds_(ds),
        gate_(gate),
        batch_cap_(options.batch_cap != 0 ? options.batch_cap
                                          : sched.num_workers()),
        shed_threshold_(options.shed_threshold),
        stall_probe_(std::move(options.stall_probe)),
        slots_(checked_max_threads(max_threads)),
        trace_id_(trace::register_domain(this)) {
    // Reserve both pump scratch vectors up front: serve() must not allocate
    // (and so must not throw) between claiming slots and completing them.
    working_.reserve(slots_.size());
    collected_.reserve(slots_.size());
  }

  ExternalDomain(rt::Scheduler& sched, BatchedStructure& ds,
                 std::size_t max_threads, std::size_t batch_cap = 0)
      : ExternalDomain(sched, ds, max_threads, Options{batch_cap, 0, {}}) {}

  ExternalDomain(const ExternalDomain&) = delete;
  ExternalDomain& operator=(const ExternalDomain&) = delete;

  ~ExternalDomain() { trace::unregister_domain(this); }

  // Called by external thread `tid`: publishes `op` and blocks until a batch
  // has applied it.  The analogue of BATCHIFY for non-worker threads.
  //
  // Error paths: throws std::out_of_range for a bad `tid` (always checked —
  // a silent out-of-bounds write from an external thread must never depend
  // on build type); throws DomainOverloaded (before publishing) when pending
  // depth is at the shed threshold; throws DomainClosed / DomainQuarantined
  // if the domain is (or becomes) shut down before the op is picked up;
  // rethrows the batch's error if the BOP failed while applying it.  After
  // any throw the slot is free again and the domain — if still open —
  // accepts new submissions.
  void submit(std::size_t tid, OpRecordBase& op) {
    submit_impl(tid, op, /*has_deadline=*/false, Clock::time_point{});
  }

  // As submit(), but additionally throws OpTimedOut if the pump has not
  // claimed the record by `deadline`.  Once claimed the op completes
  // normally (or fails with its batch) regardless of the deadline.
  void submit_until(std::size_t tid, OpRecordBase& op,
                    std::chrono::steady_clock::time_point deadline) {
    submit_impl(tid, op, /*has_deadline=*/true, deadline);
  }

  // submit_until with an already-expired deadline: publish, give the pump
  // exactly the in-flight window to claim, then revoke.  Throws OpTimedOut
  // unless the op was claimed (in which case it completes and returns or
  // rethrows like submit()).
  void try_submit(std::size_t tid, OpRecordBase& op) {
    submit_impl(tid, op, /*has_deadline=*/true, Clock::time_point::min());
  }

  // submit() with RetryPolicy backoff over DomainOverloaded rejections.
  // Deadline/closed/batch errors are not retried — only shed rejections,
  // which are guaranteed side-effect free.
  void submit_with_retry(std::size_t tid, OpRecordBase& op,
                         const RetryPolicy& policy) {
    Xoshiro256 rng(policy.seed ^
                   (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(tid) + 1)));
    for (unsigned attempt = 0;; ++attempt) {
      try {
        submit(tid, op);
        return;
      } catch (const DomainOverloaded&) {
        if (attempt >= policy.max_retries) throw;
      }
      retries_.fetch_add(1, std::memory_order_relaxed);
      const unsigned shift = std::min(attempt, 31u);
      const std::uint64_t full =
          std::min<std::uint64_t>(policy.max_spins,
                                  std::uint64_t{policy.base_spins} << shift);
      const std::uint64_t spins = full / 2 + rng.next_below(full / 2 + 1);
      for (std::uint64_t i = 0; i < spins; ++i) cpu_relax();
    }
  }

  // One pump step: scan the slot array once (from the rotating cursor),
  // claim up to `batch_cap` pending records, and run them as one batch dag.
  // Returns true when a batch was served, false when the scan found nothing.
  // `after_bop` runs once per served batch, after the BOP and before the
  // Done stores that release its submitters.
  //
  // This is the unit a multi-domain front-end schedules: pump tasks sweep
  // pump_once() across several sharded domains (see
  // service::ShardRouter::serve), so K shards need far fewer than K workers.
  // Invariant 1 discipline is unchanged — at most one thread may pump a
  // given domain at a time (the scan cursor and scratch vectors are
  // deliberately unsynchronized pump-only state).
  bool pump_once() {
    return pump_once([] {});
  }

  template <typename AfterBop>
  bool pump_once(AfterBop&& after_bop) {
    rt::Worker* w = rt::Worker::current();
    BATCHER_ASSERT(w != nullptr, "pump_once() must run on a worker");
    const std::size_t n = slots_.size();
    working_.clear();
    collected_.clear();
    // Scan from a rotating start so high tids are not starved when the cap
    // keeps filling from the same low slots: the next pass resumes after
    // the last slot this pass examined.
    std::size_t examined = 0;
    for (std::size_t k = 0; k < n && working_.size() < batch_cap_; ++k) {
      const std::size_t i =
          scan_start_ + k >= n ? scan_start_ + k - n : scan_start_ + k;
      Slot& slot = *slots_[i];
      examined = k + 1;
      if (slot.status.load(std::memory_order_acquire) != kPending) continue;
      // CAS, not a plain store: a submitter observing shutdown — or its
      // deadline — may revoke its record concurrently.
      rt::hooks::emit({rt::hooks::HookPoint::kExternalClaim, w->id(),
                       rt::TaskKind::Batch, rt::TaskKind::Batch, this, i});
      std::uint8_t expected = kPending;
      if (slot.status.compare_exchange_strong(expected, kExecuting,
                                              std::memory_order_acq_rel)) {
        working_.push_back(slot.op);
        collected_.push_back(&slot);
      }
    }
    scan_start_ = (scan_start_ + examined) % n;
    if (working_.empty()) return false;
    // Execute the BOP as a batch dag so idle workers help via their
    // batch deques — the whole point of the bridge.  A throwing BOP
    // fails exactly this batch's ops; the pump keeps serving.
    try {
      w->run_inline(rt::TaskKind::Batch, [&] {
#if BATCHER_AUDIT
        // Same fault point as Batcher's launch path: an armed
        // throw_in_bop covers externally pumped batches too.
        if (rt::hooks::fire(rt::hooks::test_faults().throw_in_bop)) {
          throw rt::hooks::InjectedFault("injected fault: BOP threw");
        }
#endif
        ds_.run_batch(working_.data(), working_.size());
      });
    } catch (...) {
      const std::exception_ptr error = std::current_exception();
      for (Slot* slot : collected_) slot->op->set_error(error);
      failed_batches_.fetch_add(1, std::memory_order_relaxed);
    }
    after_bop();
    for (Slot* slot : collected_) {
      slot->status.store(kDone, std::memory_order_release);
    }
    batches_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // True when a pump has something to do here: a published record to claim,
  // or a closed domain still to drain.  A lock-free peek any thread may take.
  bool wants_pump() const {
    if (closed()) return true;
    for (const auto& slot : slots_) {
      if (slot->status.load(std::memory_order_acquire) == kPending) return true;
    }
    return false;
  }

  // The pump's exit drain, callable once the domain is closed and its final
  // scan came back empty: fails every record published between that scan and
  // the submitters noticing the shutdown flag, so no submit can spin on a
  // pump that has already left.  serve() calls it on exit; a multi-domain
  // pump loop calls it per domain when pump_once() goes quiet after close.
  void drain_closed() {
    BATCHER_ASSERT(closed(), "drain_closed() requires a closed domain");
    drain_pending(quarantined_.load(std::memory_order_acquire));
  }

  // The pump of a lone domain: run this inside Scheduler::run (typically as
  // the root task, or spawned beside other work).  Serves batches until
  // `shutdown` is called and every published record has been applied (or
  // failed with DomainClosed by the exit drain).  A domain built with a
  // PumpGate is pumped by its front-end instead.
  void serve() {
    Backoff backoff;
    while (true) {
      if (pump_once()) {
        backoff.reset();
        continue;
      }
      if (stop_.load(std::memory_order_acquire)) break;
      backoff.pause();
    }
    drain_closed();
  }

  // Ask the pump to exit once the slot array drains, and bound every
  // submit(): after this, an unserved submit fails with DomainClosed rather
  // than blocking forever.  Safe from any thread; idempotent.
  void shutdown() {
    stop_.store(true, std::memory_order_release);
    if (gate_ != nullptr) gate_->wake_all();
  }

  // Escalation path for a wedged domain (the StallWatchdog handler target):
  // close the domain and immediately fail every still-Pending record with
  // DomainQuarantined through the legal Pending->Executing->Done edges —
  // the exit drain's discipline, runnable from *any* thread, so blocked
  // submitters unblock even if the pump never scans again.
  //
  // `fail_claimed` additionally flips Executing records to Done with the
  // same error.  That edge belongs to the pump, so it is legal only when
  // the pump is known to be wedged forever (the record's true owner will
  // never store Done) — a last resort mirroring Batcher's fail_claimed.
  // Call it from at most one thread.
  void quarantine(bool fail_claimed = false) {
    quarantined_.store(true, std::memory_order_release);
    stop_.store(true, std::memory_order_release);
    // Parked pumps must wake to retire this domain; the others keep serving.
    if (gate_ != nullptr) gate_->wake_all();
    drain_pending(/*as_quarantine=*/true);
    if (!fail_claimed) return;
    for (auto& padded : slots_) {
      Slot& slot = *padded;
      if (slot.status.load(std::memory_order_acquire) != kExecuting) continue;
      slot.op->set_error(std::make_exception_ptr(DomainQuarantined()));
      std::uint8_t expected = kExecuting;
      slot.status.compare_exchange_strong(expected, kDone,
                                          std::memory_order_acq_rel);
    }
  }

  bool closed() const { return stop_.load(std::memory_order_acquire); }
  bool quarantined() const {
    return quarantined_.load(std::memory_order_acquire);
  }

  // Published-but-unresolved records right now (approximate while threads
  // run; exact at quiescence).
  std::size_t pending_depth() const {
    return pending_depth_.load(std::memory_order_acquire);
  }

  std::uint64_t batches_served() const {
    return batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_served() const {
    return ops_served_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches_failed() const {
    return failed_batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_failed() const {
    return ops_failed_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_succeeded() const {
    return ops_succeeded_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_timed_out() const {
    return ops_timed_out_.load(std::memory_order_relaxed);
  }
  std::uint64_t ops_shed() const {
    return ops_shed_.load(std::memory_order_relaxed);
  }
  std::uint64_t retries_attempted() const {
    return retries_.load(std::memory_order_relaxed);
  }

  ExternalStats stats() const {
    ExternalStats s;
    s.ops_served = ops_served();
    s.ops_succeeded = ops_succeeded();
    s.ops_failed = ops_failed();
    s.ops_timed_out = ops_timed_out();
    s.ops_shed = ops_shed();
    s.batches_served = batches_served();
    s.batches_failed = batches_failed();
    s.retries_attempted = retries_attempted();
    return s;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static constexpr std::uint8_t kFree = 0;
  static constexpr std::uint8_t kPending = 1;
  static constexpr std::uint8_t kExecuting = 2;
  static constexpr std::uint8_t kDone = 3;

  struct Slot {
    std::atomic<std::uint8_t> status{kFree};
    OpRecordBase* op = nullptr;
  };

  // Always checked, like `tid` in submit_impl.  Runs in the initializer list
  // so a throw precedes the trace-domain registration.
  static std::size_t checked_max_threads(std::size_t max_threads) {
    if (max_threads == 0) {
      throw std::invalid_argument(
          "batcher: external domain needs max_threads >= 1");
    }
    return max_threads;
  }

  void submit_impl(std::size_t tid, OpRecordBase& op, bool has_deadline,
                   Clock::time_point deadline) {
    BATCHER_ASSERT(rt::Worker::current() == nullptr,
                   "workers must use Batcher::batchify, not ExternalDomain");
    if (tid >= slots_.size()) {
      throw std::out_of_range("batcher: external thread id out of range");
    }
    if (closed()) throw_closed();
    // Shed before publishing: a refused op has no side effects, so the
    // caller may retry freely.  Increment-then-verify, not check-then-act:
    // a racy pre-check lets M concurrent submitters all observe
    // depth < threshold and overshoot the backlog bound by up to M.  The
    // fetch_add hands each submitter a serialized admission ticket `prev`;
    // exactly those with prev < threshold keep their increment and publish,
    // so the published depth never exceeds shed_threshold.
    const std::size_t prev =
        pending_depth_.fetch_add(1, std::memory_order_relaxed);
    if (shed_threshold_ != 0 && prev >= shed_threshold_) {
      pending_depth_.fetch_sub(1, std::memory_order_relaxed);
      ops_shed_.fetch_add(1, std::memory_order_relaxed);
      if (trace::enabled()) [[unlikely]] {
        trace::emit(trace::kNoWorkerId, trace::EventId::kOpShed, trace_id_);
      }
      throw DomainOverloaded();
    }
    Slot& slot = *slots_[tid];
    BATCHER_DASSERT(slot.status.load(std::memory_order_relaxed) == kFree,
                    "one in-flight op per external thread");
    op.clear_error();
    slot.op = &op;
    rt::hooks::emit({rt::hooks::HookPoint::kExternalSubmit, rt::hooks::kNoWorker,
                     rt::TaskKind::Batch, rt::TaskKind::Batch, this, tid});
    slot.status.store(kPending, std::memory_order_release);
    if (gate_ != nullptr) gate_->after_publish();
    Backoff backoff;
    std::uint32_t spins = 0;
    while (slot.status.load(std::memory_order_acquire) != kDone) {
      // Shutdown bounds the wait: revoke the record if the pump has not
      // claimed it.  The CAS races the pump's own pending->executing CAS
      // (and the drain's pending->failed CAS), so exactly one side wins; if
      // the pump won, the op is in a batch and Done is coming.
      if (stop_.load(std::memory_order_acquire)) {
        if (try_revoke(slot, tid)) {
          ops_failed_.fetch_add(1, std::memory_order_relaxed);
          ops_served_.fetch_add(1, std::memory_order_relaxed);
          throw_closed();
        }
      }
      // The deadline bounds time-to-claim through the same revoke CAS.  A
      // lost CAS means the pump claimed first: the op is in a batch, the
      // deadline no longer applies, and we wait for Done like submit().
      if (has_deadline && Clock::now() >= deadline) {
        if (try_revoke(slot, tid)) {
          ops_timed_out_.fetch_add(1, std::memory_order_relaxed);
          ops_served_.fetch_add(1, std::memory_order_relaxed);
          if (trace::enabled()) [[unlikely]] {
            trace::emit(trace::kNoWorkerId, trace::EventId::kOpTimeout,
                        trace_id_);
          }
          throw OpTimedOut();
        }
        has_deadline = false;
      }
      // Periodically poke the installed stall probe (e.g. a watchdog's
      // check_now) so a wedged pump is detected by the threads it wedges.
      if (stall_probe_ && (++spins & 1023u) == 0) stall_probe_();
      backoff.pause();
    }
    slot.op = nullptr;
    slot.status.store(kFree, std::memory_order_relaxed);
    pending_depth_.fetch_sub(1, std::memory_order_relaxed);
    ops_served_.fetch_add(1, std::memory_order_relaxed);
    if (op.failed()) {
      ops_failed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      ops_succeeded_.fetch_add(1, std::memory_order_relaxed);
    }
    op.rethrow_if_failed();
  }

  // Owner-side Pending -> Free revocation; true when this thread won the
  // record back (slot fully released, depth adjusted).
  bool try_revoke(Slot& slot, std::size_t tid) {
    rt::hooks::emit({rt::hooks::HookPoint::kExternalRevoke, rt::hooks::kNoWorker,
                     rt::TaskKind::Batch, rt::TaskKind::Batch, this, tid});
    std::uint8_t expected = kPending;
    if (!slot.status.compare_exchange_strong(expected, kFree,
                                             std::memory_order_acq_rel)) {
      return false;
    }
    slot.op = nullptr;
    pending_depth_.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  [[noreturn]] void throw_closed() const {
    if (quarantined()) throw DomainQuarantined();
    throw DomainClosed();
  }

  // Fail every still-Pending record through the legal edges.  Shared by the
  // pump's exit drain (worker thread) and quarantine (any thread); the
  // Pending->Executing CAS serializes against both the pump scan and owner
  // revocation, so concurrent drains are safe.
  void drain_pending(bool as_quarantine) {
    const unsigned claimer =
        rt::Worker::current() != nullptr ? rt::Worker::current()->id()
                                         : rt::hooks::kNoWorker;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      Slot& slot = *slots_[i];
      if (slot.status.load(std::memory_order_acquire) != kPending) continue;
      rt::hooks::emit({rt::hooks::HookPoint::kExternalClaim, claimer,
                       rt::TaskKind::Batch, rt::TaskKind::Batch, this, i});
      std::uint8_t expected = kPending;
      if (slot.status.compare_exchange_strong(expected, kExecuting,
                                              std::memory_order_acq_rel)) {
        slot.op->set_error(as_quarantine
                               ? std::make_exception_ptr(DomainQuarantined())
                               : std::make_exception_ptr(DomainClosed()));
        slot.status.store(kDone, std::memory_order_release);
      }
    }
  }

  rt::Scheduler& sched_;
  BatchedStructure& ds_;
  PumpGate* const gate_;
  const std::size_t batch_cap_;
  const std::size_t shed_threshold_;
  const std::function<void()> stall_probe_;
  std::vector<Padded<Slot>> slots_;
  std::vector<OpRecordBase*> working_;   // pump-only scratch
  std::vector<Slot*> collected_;         // pump-only scratch
  std::size_t scan_start_ = 0;           // pump-only rotation cursor
  std::atomic<bool> stop_{false};
  std::atomic<bool> quarantined_{false};
  std::atomic<std::size_t> pending_depth_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> failed_batches_{0};
  std::atomic<std::uint64_t> ops_served_{0};
  std::atomic<std::uint64_t> ops_succeeded_{0};
  std::atomic<std::uint64_t> ops_failed_{0};
  std::atomic<std::uint64_t> ops_timed_out_{0};
  std::atomic<std::uint64_t> ops_shed_{0};
  std::atomic<std::uint64_t> retries_{0};
  const std::uint16_t trace_id_;
};

}  // namespace batcher
