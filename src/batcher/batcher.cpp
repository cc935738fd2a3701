#include "batcher/batcher.hpp"

#include <stdexcept>

#include "runtime/schedule_hooks.hpp"
#include "support/backoff.hpp"
#include "trace/bound_ledger.hpp"
#include "trace/trace.hpp"

namespace batcher {

namespace hooks = rt::hooks;
using hooks::EventId;

namespace {

// Fault-injection point for the claim walk (compiles to nothing without
// BATCHER_AUDIT).  Fires *before* the slot flips, so a partially collected
// batch leaves earlier slots Executing and the faulted slot Pending; the
// BatchGuard fails both (Batcher::fail_claimed).
inline void maybe_inject_collect_fault() {
#if BATCHER_AUDIT
  if (hooks::fire(hooks::test_faults().throw_in_collect)) {
    throw hooks::InjectedFault("injected fault: collect threw");
  }
#endif
}

}  // namespace

Batcher::Batcher(rt::Scheduler& sched, BatchedStructure& ds)
    : sched_(sched),
      ds_(ds),
      trace_id_(trace::register_domain(this)) {
  const std::size_t P = sched_.num_workers();
  slots_ = std::vector<Slot>(P);
  for (std::size_t i = 0; i < P; ++i) {
    slots_[i].owner = static_cast<unsigned>(i);
  }
  working_.resize(P, nullptr);
  claimed_.resize(P, nullptr);
  chain_limit_ = P > 0 ? P : 1;
  stat_cells_.histogram = std::vector<std::atomic<std::uint64_t>>(P + 1);
}

void Batcher::set_chain_limit(std::size_t limit) {
  chain_limit_ = limit > 0 ? limit : 1;
}

Batcher::~Batcher() { trace::unregister_domain(this); }

void Batcher::batchify(OpRecordBase& op) {
  rt::Worker* w = rt::Worker::current();
  BATCHER_ASSERT(w != nullptr && w->scheduler() == &sched_,
                 "batchify must be called from a worker of the owning scheduler");
  BATCHER_ASSERT(w->current_kind() == rt::TaskKind::Core,
                 "batch implementations must not invoke batchify themselves");

  Slot& slot = slots_[w->id()];
  BATCHER_DASSERT(slot.status.load(std::memory_order_relaxed) == OpStatus::Free,
                  "a worker has at most one suspended data-structure node");
  op.clear_error();  // records may be reused across operations
  hooks::emit({EventId::kOpSubmit, w->id(), rt::TaskKind::Core,
               w->current_kind(), this, 0, trace_id_});
  slot.op = &op;
  // Bound ledger: publish this op's path-so-far with the slot (the launcher
  // folds the batch's max into its launch strand after collect), then pause —
  // the whole trapped loop below is other strands' time: helped batch tasks
  // and any launch we run open scopes of their own over the paused state.
  if (trace::enabled()) [[unlikely]] {
    const trace::ledger::PathPoint path = trace::ledger::strand_now();
    slot.submit_path_ns = path.ns;
    slot.submit_path_tasks = path.tasks;
    // Clear any done path left from a previous session: if this op's
    // completion pass runs with tracing off it writes nothing, and resuming
    // from a stale path would fold foreign nanoseconds into this session.
    slot.done_path_ns = 0;
    slot.done_path_tasks = 0;
    trace::ledger::strand_pause();
  }
  // Emitted before the release store: a launcher can only observe (and report
  // on) this slot after the store, so the observer sees free->pending first.
  hooks::emit({EventId::kStatusFreeToPending, w->id(),
               rt::TaskKind::Core, w->current_kind(), this});
  // A launcher learns of this store (and the op) through the announce push
  // below.
  slot.status.store(OpStatus::Pending, std::memory_order_release);

  // Announce the slot (DESIGN.md §11) on the list the launcher claims
  // wholesale.  Emitted-before-push mirrors the status events: an observer
  // sees the announce before any launcher can act on it.
  hooks::emit({EventId::kAnnouncePush, w->id(), rt::TaskKind::Core,
               w->current_kind(), this, 0, trace_id_});
  stat_cells_.announce_pushes.fetch_add(1, std::memory_order_relaxed);
  announced_.push(slot);

  // The trapped-worker rules of Fig. 3.
  Backoff backoff;
  while (true) {
    // Non-empty batch deque: execute batch work.
    rt::Task* task = w->pop(rt::TaskKind::Batch);
    if (task != nullptr) {
      w->run_task(task);
      backoff.reset();
      continue;
    }
    // Batch deque empty: resume if our operation completed.
    if (slot.status.load(std::memory_order_acquire) == OpStatus::Done) break;
    // Otherwise try to launch a batch if none is active.  The relaxed load
    // gates the CAS so a closed flag never costs an exclusive cache-line
    // acquisition, and a *lost* CAS race backs off before this worker
    // touches the flag line again — under a reopen storm (P trapped workers
    // racing one reopened flag) only the winner keeps hammering the line.
    if (batch_flag_.load(std::memory_order_relaxed) == 0) {
      std::uint32_t expected = 0;
      if (batch_flag_.compare_exchange_strong(expected, 1,
                                              std::memory_order_acq_rel,
                                              std::memory_order_acquire)) {
        // The skip_batch_flag_cas fault hides this event from the observer
        // only (hooks::deliver).
        hooks::emit({EventId::kFlagWon, w->id(), rt::TaskKind::Core,
                     w->current_kind(), this, 0, trace_id_});
        w->run_inline(rt::TaskKind::Batch, [this] { launch_batch(); });
        backoff.reset();
        continue;
      }
      // Lost the race: another trapped worker (or a chained launch) owns the
      // batch; count it, note it in the trace, and back off.
      stat_cells_.flag_cas_failures.fetch_add(1, std::memory_order_relaxed);
      hooks::emit({EventId::kFlagCasFail, w->id(), rt::TaskKind::Core,
                   w->current_kind(), this, 0, trace_id_});
      backoff.pause();
      continue;
    }
    // ...else steal from a random victim's batch deque.
    task = w->try_steal(rt::TaskKind::Batch);
    if (task != nullptr) {
      w->run_task(task);
      backoff.reset();
    } else {
      backoff.pause();
    }
  }

  // Bound ledger: resume the op's strand from the completion pass's path —
  // the Done acquire above ordered the done_path_* writes before these reads.
  if (trace::enabled()) [[unlikely]] {
    trace::ledger::strand_resume(
        {slot.done_path_ns, slot.done_path_tasks});
  }
  // done -> free: only the owning worker makes this transition (§4).
  hooks::emit({EventId::kStatusDoneToFree, w->id(),
               rt::TaskKind::Core, w->current_kind(), this});
  slot.op = nullptr;
  slot.status.store(OpStatus::Free, std::memory_order_relaxed);
  hooks::emit({EventId::kOpResume, w->id(), rt::TaskKind::Core,
               w->current_kind(), this, 0, trace_id_});
  // The slot is released either way; a failed op surfaces at its caller.
  op.rethrow_if_failed();
}

Batcher::BatchGuard::BatchGuard(Batcher& batcher, unsigned launcher)
    : b_(batcher), launcher_(launcher) {
  hooks::emit({EventId::kLaunchEnter, launcher_, rt::TaskKind::Batch,
               rt::TaskKind::Batch, &b_, 0, b_.trace_id_});
  const std::int32_t already =
      b_.batches_running_.fetch_add(1, std::memory_order_acq_rel);
  BATCHER_ASSERT(already == 0, "Invariant 1 violated: overlapping batches");
}

Batcher::BatchGuard::~BatchGuard() {
  std::size_t failed_ops = 0;
  std::size_t done = count_;
  if (!clean_) {
    // Recovery: every slot the batch collected but never completed is failed
    // with the launch error, so its trapped owner resumes (and rethrows).
    // Only the claimed list can hold such slots, so this is O(batch).
    std::exception_ptr error =
        error_ != nullptr
            ? error_
            : std::make_exception_ptr(
                  std::runtime_error("batcher: batch launch aborted"));
    failed_ops = b_.fail_claimed(error);
    if (!have_count_) done = failed_ops;  // collect died before counting
  }

  // Stats (we are the unique launcher; plain relaxed updates suffice).
  // Bumped here so no exit path — including a throwing BOP — skips them.
  auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  };
  StatsCells& st = b_.stat_cells_;
  bump(st.batches_launched);
  if (done == 0) bump(st.empty_batches);
  if (!clean_) bump(st.failed_batches);
  if (clean_ && done > 0) bump(st.clean_nonempty_batches);
  bump(st.ops_processed, done);
  bump(st.ops_failed, failed_ops);
  bump(st.ops_succeeded, done - failed_ops);
  if (done > st.max_batch_size.load(std::memory_order_relaxed)) {
    st.max_batch_size.store(done, std::memory_order_relaxed);
  }
  if (done < st.histogram.size()) bump(st.histogram[done]);

  b_.batches_running_.fetch_sub(1, std::memory_order_acq_rel);
  // Emitted before the flag reopens: the next launcher's kFlagWon cannot
  // precede this event, so the observer's flag-holder model stays exact.
  hooks::emit({EventId::kLaunchExit, launcher_, rt::TaskKind::Batch,
               rt::TaskKind::Batch, &b_, done, b_.trace_id_});
  if (keep_flag_) return;  // a chained launch runs under the same hold
  // Reopen the domain.  kFlagReopen closes the flag-held trace window that
  // kFlagWon opened (kLaunchExit no longer implies a reopen); the release
  // store pairs with the next launcher's CAS acquire.
  hooks::emit({EventId::kFlagReopen, launcher_, rt::TaskKind::Batch,
               rt::TaskKind::Batch, &b_, 0, b_.trace_id_});
  b_.batch_flag_.store(0, std::memory_order_release);
}

void Batcher::launch_batch() {
  const unsigned launcher = rt::Worker::current()->id();
  // Batch chaining: each iteration is one complete launch under its own
  // BatchGuard — per-launch stats, hooks and trace events are identical to
  // the unchained protocol — but a clean launch that finds new announcements
  // keeps the flag and runs the next batch immediately, skipping the reopen
  // -> CAS storm -> relaunch round trip.  `chain` counts launches already run
  // under this hold; the chain is bounded by chain_limit_ (default P) so one
  // worker cannot monopolize the domain.
  for (std::size_t chain = 0;;) {
    bool chain_again = false;
    {
      // Bound ledger: each launch of the chain is a strand.  It starts empty
      // (the launcher's own core strand is paused in batchify) and, once the
      // batch is collected, folds in the longest submit path — the launch
      // depends on every op it carries.  Constructed before the guard so the
      // guard's failure completions still run under a live scope.
      const bool led = trace::enabled();
      trace::ledger::StrandScope lscope({0, 0}, led);
      BatchGuard guard(*this, launcher);
      try {
        const std::size_t count = collect();
        guard.collected(count);
        hooks::emit({EventId::kCollected, launcher, rt::TaskKind::Batch,
                     rt::TaskKind::Batch, this, count, trace_id_});
        BATCHER_ASSERT(count <= sched_.num_workers(),
                       "Invariant 2 violated: batch larger than P");
        if (led && count > 0) [[unlikely]] {
          // The launch depends on exactly the ops it collected.
          trace::ledger::PathPoint dep;
          for (std::size_t i = 0; i < count; ++i) {
            const Slot& s = *claimed_[i];
            if (s.submit_path_ns > dep.ns) dep.ns = s.submit_path_ns;
            if (s.submit_path_tasks > dep.tasks) {
              dep.tasks = s.submit_path_tasks;
            }
          }
          trace::ledger::strand_fold(dep);
        }
#if BATCHER_AUDIT
        // Slow-launcher fault: stretch the window in which the batch flag is
        // held, for StallWatchdog tests.
        for (std::uint32_t i = hooks::test_faults().slow_launcher_spins.load(
                 std::memory_order_relaxed);
             i > 0; --i) {
          cpu_relax();
        }
#endif
        if (count > 0) {
#if BATCHER_AUDIT
          if (hooks::fire(hooks::test_faults().throw_in_bop)) {
            throw hooks::InjectedFault("injected fault: BOP threw");
          }
#endif
          std::uint64_t bop_wall0 = 0;
          trace::ledger::PathPoint bop_path0;
          if (led) [[unlikely]] {
            bop_wall0 = trace::now_ns();
            bop_path0 = trace::ledger::strand_now();
          }
          ds_.run_batch(working_.data(), count);
          if (led) [[unlikely]] {
            // Path sampled before the wall read (mirroring wall-before-path
            // on entry) so the span window nests inside the wall window and
            // span <= wall holds exactly, not just up to clock-read skew.
            const trace::ledger::PathPoint bop_path1 =
                trace::ledger::strand_now();
            const std::uint64_t bop_wall1 = trace::now_ns();
            // s(n) evidence: one sample per clean non-empty BOP — batch size
            // n, wall time, and measured span (path growth across the call).
            trace::ledger::note_batch(
                trace_id_, count,
                bop_wall1 >= bop_wall0 ? bop_wall1 - bop_wall0 : 0,
                bop_path1.ns - bop_path0.ns);
          }
          hooks::emit({EventId::kBopDone, launcher, rt::TaskKind::Batch,
                       rt::TaskKind::Batch, this, count, trace_id_});
          complete(/*error=*/nullptr);
        }
        guard.completed_cleanly();
        // Chain only off a clean launch: a failed one reopens the domain so
        // recovery semantics match the unchained path exactly.  The relaxed
        // head probe is only a hint: a stale-null miss just means the next
        // batch pays one flag round trip, and a non-null sighting cannot be
        // spurious (only owners push; collect claims whatever is really
        // there, possibly more than we saw).
        if (chain + 1 < chain_limit_ && !announced_.empty()) {
          chain_again = true;
          guard.keep_flag();
        }
      } catch (...) {
        // First (and only) launch error wins; the guard fails the remaining
        // collected slots and reopens the domain on destruction.
        guard.fail(std::current_exception());
      }
    }
    if (!chain_again) return;
    ++chain;
    // The guard's kLaunchExit cleared the observer's flag-holder; re-assert
    // it before the next kLaunchEnter so the auditor's Invariant 1 model
    // stays exact (the real flag never reopened).
    stat_cells_.chained_launches.fetch_add(1, std::memory_order_relaxed);
    hooks::emit({EventId::kLaunchChained, launcher, rt::TaskKind::Batch,
                 rt::TaskKind::Batch, this, chain, trace_id_});
  }
}

std::size_t Batcher::collect() {
  BATCHER_DASSERT(claimed_count_ == 0 && claimed_rest_ == nullptr,
                  "the previous launch's claim was fully consumed");
  hooks::emit({EventId::kAnnounceClaim,
               rt::Worker::current()->id(), rt::TaskKind::Batch,
               rt::TaskKind::Batch, this});
  // One claim takes every announced slot; the walk's relaxed loads see each
  // owner's op pointer and Pending store (AnnounceList's ordering note).
  Slot* s = announced_.claim();
  claimed_rest_ = s;
  std::size_t count = 0;
  while (s != nullptr) {
    BATCHER_DASSERT(s->status.load(std::memory_order_relaxed) ==
                        OpStatus::Pending,
                    "announced slots are pending until this walk flips them");
    // The fault fires before the flip and before the slot leaves
    // claimed_rest_, so recovery sees it as claimed-but-uncollected.
    maybe_inject_collect_fault();
    working_[count] = s->op;
    claimed_[count] = s;
    claimed_count_ = ++count;
    hooks::emit({EventId::kStatusPendingToExecuting, s->owner,
                 rt::TaskKind::Batch, rt::TaskKind::Batch, this});
    s->status.store(OpStatus::Executing, std::memory_order_relaxed);
    s = s->announce_next;
    claimed_rest_ = s;
  }
  return count;
}

std::size_t Batcher::complete(const std::exception_ptr& error) {
  const bool led = trace::enabled();
  for (std::size_t i = 0; i < claimed_count_; ++i) {
    Slot* s = claimed_[i];
    if (error != nullptr) s->op->set_error(error);
    if (led) [[unlikely]] {
      // The launcher's current path reaches this completion node; the Done
      // release store publishes it with the result, and the trapped owner
      // resumes from it.
      const trace::ledger::PathPoint path = trace::ledger::strand_now();
      s->done_path_ns = path.ns;
      s->done_path_tasks = path.tasks;
    }
    hooks::emit({EventId::kStatusExecutingToDone, s->owner,
                 rt::TaskKind::Batch, rt::TaskKind::Batch, this});
    // Release publishes BOP results (and any recorded error) to the
    // trapped owner's acquire load in batchify.
    s->status.store(OpStatus::Done, std::memory_order_release);
  }
  const std::size_t flipped = claimed_count_;
  claimed_count_ = 0;
  return flipped;
}

std::size_t Batcher::fail_claimed(const std::exception_ptr& error) {
  // Already-collected slots are Executing: record the error and flip them
  // to Done exactly like a clean completion would.
  std::size_t flipped = complete(error);
  // A throw inside the claim walk leaves a claimed-but-uncollected tail:
  // those slots are still Pending but no longer on the announce stack, so
  // no later batch could ever pick them up — fail them here, walking the
  // legal Fig. 3 edges (pending -> executing -> done) so their trapped
  // owners resume and rethrow.
  const bool led = trace::enabled();
  for (Slot* s = claimed_rest_; s != nullptr;) {
    // Read the link before the Done store: once Done is published the owner
    // may resume, re-announce, and overwrite announce_next.
    Slot* next = s->announce_next;
    s->op->set_error(error);
    if (led) [[unlikely]] {
      const trace::ledger::PathPoint path = trace::ledger::strand_now();
      s->done_path_ns = path.ns;
      s->done_path_tasks = path.tasks;
    }
    hooks::emit({EventId::kStatusPendingToExecuting, s->owner,
                 rt::TaskKind::Batch, rt::TaskKind::Batch, this});
    s->status.store(OpStatus::Executing, std::memory_order_relaxed);
    hooks::emit({EventId::kStatusExecutingToDone, s->owner,
                 rt::TaskKind::Batch, rt::TaskKind::Batch, this});
    s->status.store(OpStatus::Done, std::memory_order_release);
    ++flipped;
    s = next;
  }
  claimed_rest_ = nullptr;
  return flipped;
}

BatcherStats Batcher::stats() const {
  BatcherStats out;
  out.batches_launched =
      stat_cells_.batches_launched.load(std::memory_order_relaxed);
  out.empty_batches = stat_cells_.empty_batches.load(std::memory_order_relaxed);
  out.failed_batches =
      stat_cells_.failed_batches.load(std::memory_order_relaxed);
  out.clean_nonempty_batches =
      stat_cells_.clean_nonempty_batches.load(std::memory_order_relaxed);
  out.ops_processed = stat_cells_.ops_processed.load(std::memory_order_relaxed);
  out.ops_failed = stat_cells_.ops_failed.load(std::memory_order_relaxed);
  out.ops_succeeded = stat_cells_.ops_succeeded.load(std::memory_order_relaxed);
  out.max_batch_size =
      stat_cells_.max_batch_size.load(std::memory_order_relaxed);
  out.announce_pushes =
      stat_cells_.announce_pushes.load(std::memory_order_relaxed);
  out.chained_launches =
      stat_cells_.chained_launches.load(std::memory_order_relaxed);
  out.flag_cas_failures =
      stat_cells_.flag_cas_failures.load(std::memory_order_relaxed);
  out.batch_size_histogram.reserve(stat_cells_.histogram.size());
  for (const auto& h : stat_cells_.histogram) {
    out.batch_size_histogram.push_back(h.load(std::memory_order_relaxed));
  }
  return out;
}

void Batcher::reset_stats() {
  stat_cells_.batches_launched.store(0, std::memory_order_relaxed);
  stat_cells_.empty_batches.store(0, std::memory_order_relaxed);
  stat_cells_.failed_batches.store(0, std::memory_order_relaxed);
  stat_cells_.clean_nonempty_batches.store(0, std::memory_order_relaxed);
  stat_cells_.ops_processed.store(0, std::memory_order_relaxed);
  stat_cells_.ops_failed.store(0, std::memory_order_relaxed);
  stat_cells_.ops_succeeded.store(0, std::memory_order_relaxed);
  stat_cells_.max_batch_size.store(0, std::memory_order_relaxed);
  stat_cells_.announce_pushes.store(0, std::memory_order_relaxed);
  stat_cells_.chained_launches.store(0, std::memory_order_relaxed);
  stat_cells_.flag_cas_failures.store(0, std::memory_order_relaxed);
  for (auto& h : stat_cells_.histogram) h.store(0, std::memory_order_relaxed);
}

}  // namespace batcher
