// ExternalDomain — the paper's concluding suggestion (§8): "a pthreaded
// program could run as normal, with data-structure calls replaced by BATCHER
// calls, allowing work-stealing to operate over the data structure batches
// while static pthreading operates over the main program."
//
// External (non-worker) threads publish operation records exactly as
// workers do in Batcher::batchify: a Pending store and one push onto the
// intrusive announce list (batcher/announce.hpp).  A *pump* task running
// inside the scheduler claims that list, serves it oldest first in batches
// of at most P records, and executes the structure's BOP as a batch dag —
// so the batch itself is accelerated by work stealing even though the
// callers are plain threads.  One pump per domain at a time preserves
// Invariant 1; the cap of P preserves Invariant 2.  No submit, pump or
// shutdown path walks the slot array.
//
// Graceful degradation (DESIGN.md §13).  A service front-end must bound
// every wait and shed load it cannot absorb, so on top of the DESIGN.md §8
// failure semantics (a throwing BOP fails exactly its batch; shutdown()
// bounds every blocked submit) this domain offers:
//
//  * Deadlines: `submit_until` / `try_submit` revoke a still-Pending record
//    through the same owner-side Pending->Revoked CAS the shutdown path
//    uses and throw OpTimedOut.  A record the pump has already claimed is
//    in a batch and will complete — the deadline bounds time-to-claim,
//    never abandons an executing op (the record lives on the caller's
//    stack).
//  * Overload shedding: when the published-but-unresolved depth is at
//    `shed_threshold`, submissions fail fast with DomainOverloaded *before*
//    publishing, so the backlog is bounded and a rejected caller can back
//    off.  `submit_with_retry` layers a seeded, jittered exponential backoff
//    (RetryPolicy) over that rejection.
//  * Quarantine: `quarantine()` is the escalation hook for a wedged domain
//    (see StallWatchdog::set_escalation_handler) — it closes the domain, its
//    pump claims nothing more, and every blocked submitter revokes its own
//    record as after shutdown(), from any thread.
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

#include "batcher/announce.hpp"
#include "batcher/op_record.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "support/backoff.hpp"
#include "support/config.hpp"
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

  // Spins out the wait before retry `attempt` (0-based), drawn from `rng`.
  void backoff(unsigned attempt, Xoshiro256& rng) const {
    const std::uint64_t full = std::min<std::uint64_t>(
        max_spins, std::uint64_t{base_spins} << std::min(attempt, 31u));
    const std::uint64_t spins = full / 2 + rng.next_below(full / 2 + 1);
    for (std::uint64_t i = 0; i < spins; ++i) cpu_relax();
  }
};

// The parking gate a multi-domain pump front-end (service::ShardRouter) shares
// with its domains.  At most one pump spins (`spinning` is 0 or 1); the others
// sleep in `epoch.wait` and `parked` counts them.  A submit that publishes its
// record, fences, and then finds no spinner but a parked pump bumps `epoch`
// and wakes one.  The fence pairs with the pump's parked++ / fence / re-scan
// before it waits (a Dekker pairing): either the pump's re-scan
// (ExternalDomain::wants_pump) sees the published record, or the submitter
// sees parked != 0 and wakes it.  The pump reads `epoch` before it
// registers, so a bump that lands after that read makes its wait return at
// once.
struct PumpGate {
  std::atomic<std::uint32_t> spinning{0};
  std::atomic<std::uint32_t> parked{0};
  std::atomic<std::uint32_t> epoch{0};

  // Submit side, after the publish.  With a spinner present this is a fence
  // and two loads: the client never enters the kernel.
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
  std::uint64_t ops_failed = 0;     // Done with error, or revoked on close
  std::uint64_t ops_timed_out = 0;  // deadline-revoked before claim
  std::uint64_t ops_shed = 0;       // refused before publication
  std::uint64_t batches_served = 0;
  std::uint64_t batches_failed = 0;
  std::uint64_t retries_attempted = 0;
};

class ExternalDomain {
 public:
  struct Options {
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
  // `max_threads` is 0: such a domain could never accept a submission.
  ExternalDomain(rt::Scheduler& sched, BatchedStructure& ds,
                 std::size_t max_threads, Options options,
                 PumpGate* gate = nullptr)
      : ds_(ds),
        gate_(gate),
        cap_(sched.num_workers()),
        shed_threshold_(options.shed_threshold),
        stall_probe_(std::move(options.stall_probe)),
        slots_(checked_max_threads(max_threads)),
        trace_id_(trace::register_domain(this)) {
    // Reserve both pump scratch vectors up front: pump_once() must not
    // allocate (and so must not throw) between claiming slots and completing
    // them.
    working_.reserve(cap_);
    collected_.reserve(cap_);
  }

  ExternalDomain(rt::Scheduler& sched, BatchedStructure& ds,
                 std::size_t max_threads)
      : ExternalDomain(sched, ds, max_threads, Options{}) {}

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
      policy.backoff(attempt, rng);
    }
  }

  // One pump step: claim the announced records, walk them oldest first,
  // and serve the Pending ones in successive batches of at most P, each run
  // as one batch dag.  Revoked records met on the way are unlinked.  Every
  // record of the claim is served or unlinked before the step returns, so
  // nothing claimed waits unseen by wants_pump().  Returns true when a batch
  // was served, false when there was nothing to serve (always false once
  // the domain is quarantined; a quarantine also stops a step between
  // batches, and the owners of the records left revoke them).
  // `after_bop(more)` runs once per served batch, after the BOP and before
  // the Done stores that release its submitters; `more` says whether records
  // of the claim are left to walk.
  //
  // This is the unit a multi-domain front-end schedules: pump tasks sweep
  // pump_once() across several sharded domains (see
  // service::ShardRouter::serve), so K shards need far fewer than K workers.
  // Invariant 1 discipline is unchanged — at most one thread may pump a
  // given domain at a time (the scratch vectors are deliberately
  // unsynchronized pump-only state).
  bool pump_once() {
    return pump_once([](bool) {});
  }

  template <typename AfterBop>
  bool pump_once(AfterBop&& after_bop) {
    rt::Worker* w = rt::Worker::current();
    BATCHER_ASSERT(w != nullptr, "pump_once() must run on a worker");
    // An idle pump finds the list empty and claims nothing, so it takes no
    // read-modify-write on the submitters' head line.
    if (quarantined() || announced_.empty()) return false;
    Slot* s = oldest_first(announced_.claim());
    bool served = false;
    while (s != nullptr && !quarantined()) {
      working_.clear();
      collected_.clear();
      while (s != nullptr && working_.size() < cap_) {
        // Read the link before the CAS: an unlinked slot is its owner's to
        // push again at once.
        Slot* next = s->announce_next;
        rt::hooks::emit({rt::hooks::EventId::kExternalClaim, w->id(),
                         rt::TaskKind::Batch, rt::TaskKind::Batch, this,
                         static_cast<std::uint64_t>(s - slots_.data())});
        if (claim_or_unlink(*s)) {
          working_.push_back(s->op);
          collected_.push_back(s);
        }
        s = next;
      }
      if (working_.empty()) break;
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
      after_bop(s != nullptr);
      for (Slot* slot : collected_) {
        slot->status.store(OpStatus::Done, std::memory_order_release);
      }
      batches_.fetch_add(1, std::memory_order_relaxed);
      served = true;
    }
    return served;
  }

  // True when a pump has something to do here: an announced record or a
  // closed domain to retire.  O(1) and lock-free; any thread may take it.
  bool wants_pump() const { return closed() || !announced_.empty(); }

  // The pump of a lone domain: run this inside Scheduler::run (typically as
  // the root task, or spawned beside other work).  Serves batches until
  // `shutdown` is called and a pump step comes back empty; a submitter still
  // waiting then revokes its own record and throws DomainClosed.  A domain
  // built with a PumpGate is pumped by its front-end instead.
  void serve() {
    Backoff backoff;
    while (true) {
      if (pump_once()) {
        backoff.reset();
        continue;
      }
      if (closed()) return;
      backoff.pause();
    }
  }

  // Close the domain and bound every submit(): after this, an unserved
  // submit revokes its record and fails with DomainClosed rather than
  // blocking forever, and the pump exits once a step comes back empty.
  // Safe from any thread; idempotent.
  void shutdown() {
    stop_.store(true, std::memory_order_release);
    if (gate_ != nullptr) gate_->wake_all();
  }

  // Escalation path for a wedged domain (the StallWatchdog handler target):
  // close the domain as shutdown() does, but its pump claims nothing more
  // and blocked submitters fail with DomainQuarantined.  Runnable from *any*
  // thread: every blocked submitter revokes its own record, so none waits
  // on the pump.
  //
  // `fail_claimed` additionally flips Executing records to Done with the
  // same error — the one walk over the slot array left.  That edge belongs
  // to the pump, so it is legal only when the pump is known to be wedged
  // forever (the record's true owner will never store Done) — a last
  // resort mirroring Batcher's fail_claimed.  Call it from at most one
  // thread.
  void quarantine(bool fail_claimed = false) {
    quarantined_.store(true, std::memory_order_release);
    stop_.store(true, std::memory_order_release);
    // Parked pumps must wake to retire this domain; the others keep serving.
    if (gate_ != nullptr) gate_->wake_all();
    if (!fail_claimed) return;
    for (Slot& slot : slots_) {
      OpStatus expected = OpStatus::Executing;
      if (slot.status.load(std::memory_order_acquire) != expected) continue;
      slot.op->set_error(std::make_exception_ptr(DomainQuarantined()));
      slot.status.compare_exchange_strong(expected, OpStatus::Done,
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

  struct alignas(kCacheLineSize) Slot {
    std::atomic<OpStatus> status{OpStatus::Free};
    OpRecordBase* op = nullptr;
    // Announce-list link: owned by the pump from the push until the pump
    // claims or unlinks the slot.
    Slot* announce_next = nullptr;
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

  // Counts one published record as resolved under `how` (the identity in
  // the header comment); it leaves the backlog.
  void resolve(std::atomic<std::uint64_t>& how) {
    pending_depth_.fetch_sub(1, std::memory_order_relaxed);
    how.fetch_add(1, std::memory_order_relaxed);
    ops_served_.fetch_add(1, std::memory_order_relaxed);
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
      rt::hooks::emit({rt::hooks::EventId::kOpShed, rt::hooks::kNoWorker,
                       rt::TaskKind::Batch, rt::TaskKind::Batch, this, 0,
                       trace_id_});
      throw DomainOverloaded();
    }
    Slot& slot = slots_[tid];
    op.clear_error();
    slot.op = &op;
    rt::hooks::emit({rt::hooks::EventId::kExternalSubmit, rt::hooks::kNoWorker,
                     rt::TaskKind::Batch, rt::TaskKind::Batch, this, tid});
    publish(slot);
    if (gate_ != nullptr) gate_->after_publish();
    Backoff backoff;
    std::uint32_t spins = 0;
    while (slot.status.load(std::memory_order_acquire) != OpStatus::Done) {
      // Shutdown bounds the wait: revoke the record if the pump has not
      // claimed it.  The CAS races the pump's own Pending -> Executing CAS,
      // so exactly one side wins; if the pump won, the op is in a batch and
      // Done is coming.
      if (stop_.load(std::memory_order_acquire)) {
        if (try_revoke(slot, tid)) {
          resolve(ops_failed_);
          throw_closed();
        }
      }
      // The deadline bounds time-to-claim through the same revoke CAS.  A
      // lost CAS means the pump claimed first: the op is in a batch, the
      // deadline no longer applies, and we wait for Done like submit().
      if (has_deadline && Clock::now() >= deadline) {
        if (try_revoke(slot, tid)) {
          resolve(ops_timed_out_);
          rt::hooks::emit({rt::hooks::EventId::kOpTimeout,
                           rt::hooks::kNoWorker, rt::TaskKind::Batch,
                           rt::TaskKind::Batch, this, 0, trace_id_});
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
    slot.status.store(OpStatus::Free, std::memory_order_relaxed);
    resolve(op.failed() ? ops_failed_ : ops_succeeded_);
    op.rethrow_if_failed();
  }

  // Free -> Pending pushes the slot, as Batcher::batchify does.  A Revoked
  // slot is still linked, so it is re-armed in place and never linked
  // twice.  The re-arm CAS and the pump's unlink CAS
  // (claim_or_unlink) settle their race on the status byte: if the pump
  // unlinked first, the slot is Free and gets pushed again.
  void publish(Slot& slot) {
    OpStatus seen = slot.status.load(std::memory_order_acquire);
    if (seen == OpStatus::Revoked &&
        slot.status.compare_exchange_strong(seen, OpStatus::Pending,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
      return;
    }
    BATCHER_DASSERT(seen == OpStatus::Free,
                    "one in-flight op per external thread");
    slot.status.store(OpStatus::Pending, std::memory_order_relaxed);
    announced_.push(slot);
  }

  // Owner-side Pending -> Revoked; true when this thread won the record
  // back.  The slot stays linked until the pump unlinks it.
  bool try_revoke(Slot& slot, std::size_t tid) {
    rt::hooks::emit({rt::hooks::EventId::kExternalRevoke, rt::hooks::kNoWorker,
                     rt::TaskKind::Batch, rt::TaskKind::Batch, this, tid});
    OpStatus expected = OpStatus::Pending;
    return slot.status.compare_exchange_strong(expected, OpStatus::Revoked,
                                               std::memory_order_acq_rel);
  }

  // The pump's edge out of the list for one linked slot: Pending ->
  // Executing (true, the slot joins the batch) or Revoked -> Free (false,
  // unlinked).  Each failed CAS means the owner moved the slot between the
  // two states, so try the other edge.  The unlink's release pairs with
  // publish()'s acquire, so the link read before it precedes the owner's
  // next push.
  bool claim_or_unlink(Slot& slot) {
    while (true) {
      OpStatus seen = OpStatus::Pending;
      if (slot.status.compare_exchange_strong(seen, OpStatus::Executing,
                                              std::memory_order_acq_rel)) {
        return true;
      }
      BATCHER_ASSERT(seen == OpStatus::Revoked,
                     "a linked external slot is Pending or Revoked");
      if (slot.status.compare_exchange_strong(seen, OpStatus::Free,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
        return false;
      }
    }
  }

  // A claim lists the slots newest first; reversed, the pump serves them
  // first in, first out.
  static Slot* oldest_first(Slot* newest) {
    Slot* oldest = nullptr;
    while (newest != nullptr) {
      Slot* next = newest->announce_next;
      newest->announce_next = oldest;
      oldest = newest;
      newest = next;
    }
    return oldest;
  }

  [[noreturn]] void throw_closed() const {
    if (quarantined()) throw DomainQuarantined();
    throw DomainClosed();
  }

  BatchedStructure& ds_;
  PumpGate* const gate_;
  const std::size_t cap_;  // Invariant 2: at most P records per batch
  const std::size_t shed_threshold_;
  const std::function<void()> stall_probe_;
  std::vector<Slot> slots_;
  AnnounceList<Slot> announced_;
  std::vector<OpRecordBase*> working_;   // pump-only scratch
  std::vector<Slot*> collected_;         // pump-only scratch
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
