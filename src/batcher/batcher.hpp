// The BATCHER scheduler extension (paper §4).
//
// One `Batcher` instance forms an implicit-batching domain around one batched
// data structure: it owns the P-slot pending array, the per-worker status
// flags, the global active-batch flag, and the LAUNCHBATCH procedure.  The
// host work-stealing runtime (src/runtime) supplies the dual deques and the
// alternating-steal policy; `Batcher` adds the trapped-worker rules.
//
// A program may create several Batcher domains (one per data structure); each
// batches independently, which matches the paper's model of a program using
// one ADT per domain.
//
// Failure semantics (DESIGN.md §8): LAUNCHBATCH runs under an RAII
// BatchGuard, so on *any* exit — including a throwing BOP or a throw inside
// the claim walk — every slot the batch claimed is flipped to done (with the
// error recorded in its op record), the launch stats are bumped, and the
// batch flag reopens.  Trapped workers therefore always resume: successful
// ops return normally, failed ops rethrow from batchify, and the next batch
// launches as if nothing happened.
//
// Launch-path cost (DESIGN.md §11): batchify pushes its slot onto an
// intrusive MPSC announce list after the publish edge, and LAUNCHBATCH
// claims that list with a single exchange — so collect, complete and
// recovery all cost O(batch), not the Fig. 4 Θ(P) slot scan (whose
// Θ(lg P)-span setup the simulator models as `BatcherSimConfig::
// setup_overhead`).  Before reopening the batch flag, the launcher chains
// straight into the next batch if new announcements arrived during this one
// (bounded by `chain_limit()`, default P), skipping the reopen -> CAS-storm
// -> relaunch round trip.
//
// Under BATCHER_AUDIT the whole protocol — batchify entry/exit, every slot
// status transition, the batch-flag CAS, and LAUNCHBATCH entry/exit — emits
// schedule hooks (runtime/schedule_hooks.hpp) keyed on `this` as the domain
// identity, which src/audit uses to check Invariants 1–3 and the Fig. 3
// trapped-worker rules at runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <vector>

#include "batcher/announce.hpp"
#include "batcher/op_record.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/worker.hpp"
#include "support/config.hpp"
#include "support/padded.hpp"

namespace batcher {

// Counters describing one Batcher domain's activity.  The launch-side cells
// are written only by the (unique) active batch launcher, so single-writer
// relaxed atomics suffice; `announce_pushes` and `flag_cas_failures` are
// bumped by the trapped owners themselves (multi-writer) and use a relaxed
// fetch_add.
//
// `ops_processed` counts every operation a batch carried to done; it splits
// exactly into `ops_failed` (completed with an error recorded — the ops a
// failed launch had collected) and `ops_succeeded`, so the identity
//
//   ops_processed == ops_failed + ops_succeeded
//
// holds on every snapshot, fault-injected or not.  The histogram satisfies
// sum(hist) == batches_launched and sum(k * hist[k]) == ops_processed.
// Chained launches are ordinary launches run under one flag hold, so
// chained_launches <= batches_launched always.
struct BatcherStats {
  std::uint64_t batches_launched = 0;  // includes empty and failed launches
  std::uint64_t empty_batches = 0;
  std::uint64_t failed_batches = 0;    // launches that recorded an error
  // Launches that completed cleanly and carried at least one op — the
  // denominator of mean_batch_size.
  std::uint64_t clean_nonempty_batches = 0;
  std::uint64_t ops_processed = 0;     // ops carried to done (incl. failed)
  std::uint64_t ops_failed = 0;        // ops that completed with an error
  std::uint64_t ops_succeeded = 0;     // ops that completed without one
  std::uint64_t max_batch_size = 0;
  // Launch-path cost counters (DESIGN.md §11).
  std::uint64_t announce_pushes = 0;    // slots pushed onto the announce list
  std::uint64_t chained_launches = 0;   // launches run under a kept flag hold
  std::uint64_t flag_cas_failures = 0;  // lost batch-flag CAS races
  std::vector<std::uint64_t> batch_size_histogram;  // index = ops in batch

  // Mean over cleanly completed, non-empty launches.  Failed launches'
  // partially collected ops are excluded from both numerator and
  // denominator — a launch that died mid-collect would otherwise drag the
  // mean below what healthy batching actually achieved.  (Short of the
  // completion pass itself dying mid-flip, every successful op belongs to a
  // clean launch, so numerator and denominator agree exactly.)
  double mean_batch_size() const {
    return clean_nonempty_batches == 0
               ? 0.0
               : static_cast<double>(ops_succeeded) /
                     static_cast<double>(clean_nonempty_batches);
  }
};

class Batcher {
 public:
  Batcher(rt::Scheduler& sched, BatchedStructure& ds);
  ~Batcher();

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // The paper's BATCHIFY: hands `op` to the scheduler and blocks until some
  // batch has applied it.  Must be called from a worker of the owning
  // scheduler, in core context (data-structure code never calls batchify).
  // The calling worker is *trapped* until its operation completes: it only
  // executes batch work, launches a batch when none is active, or steals
  // from batch deques (Fig. 3).
  //
  // If the batch that carried `op` failed (the BOP threw, or the launch
  // protocol itself threw), the recorded exception rethrows here after the
  // slot has been released — the op record's error field stays set for
  // callers that prefer inspecting it.
  void batchify(OpRecordBase& op);

  rt::Scheduler& scheduler() const { return sched_; }
  // Trace/ledger domain id of this batcher.  Benches that drive run_batch
  // directly (span profiling) book their samples under this id so the
  // per-domain s(n) histograms line up with launcher-recorded ones.
  std::uint16_t trace_id() const { return trace_id_; }

  // Batch chaining: before reopening the batch flag, the launcher checks for
  // announcements that arrived during the launch and runs the next batch
  // under the same flag hold, up to `limit` launches per hold.  Defaults to
  // P, which bounds one worker's consecutive holds the same way P sequential
  // launches would.  `limit` is clamped to >= 1 (1 disables chaining).
  void set_chain_limit(std::size_t limit);
  std::size_t chain_limit() const { return chain_limit_; }

  // Snapshot of domain statistics.  Safe to call anytime; exact when no
  // batch is in flight.
  BatcherStats stats() const;
  void reset_stats();

 private:
  struct alignas(kCacheLineSize) Slot : AnnounceSlot<Slot> {
    // This slot's worker id — the status hooks name the slot's owner, and
    // the claim walk has no slot index to derive it from.
    unsigned owner = 0;
    // Bound-ledger path handoff (trace/bound_ledger.hpp).  The owner writes
    // submit_path_* before its push and the completion pass writes
    // done_path_* before its Done store, so the publish and complete rows of
    // kEdges carry the LAUNCHBATCH dependency edges with no extra
    // synchronization.
    std::uint64_t submit_path_ns = 0;
    std::uint64_t submit_path_tasks = 0;
    std::uint64_t done_path_ns = 0;
    std::uint64_t done_path_tasks = 0;
  };

  // RAII completion of one LAUNCHBATCH (DESIGN.md §8): the constructor
  // claims the launch (batches_running_, Invariant 1 check); the destructor
  // — on every exit path, normal or unwinding — fails every slot the launch
  // claimed but did not complete (records the launch error, flips it to
  // done), bumps the launch stats exactly once, decrements batches_running_,
  // emits kLaunchExit, and reopens the batch flag.
  class BatchGuard {
   public:
    BatchGuard(Batcher& batcher, unsigned launcher);
    ~BatchGuard();
    BatchGuard(const BatchGuard&) = delete;
    BatchGuard& operator=(const BatchGuard&) = delete;

    void collected(std::size_t count) {
      count_ = count;
      have_count_ = true;
    }
    void completed_cleanly() { clean_ = true; }
    void fail(std::exception_ptr error) { error_ = std::move(error); }
    // Chaining: leave the batch flag closed on destruction so the next
    // launch of the chain runs under the same hold.  Only legal after
    // completed_cleanly() — a failed launch always reopens the domain.
    void keep_flag() { keep_flag_ = true; }

   private:
    Batcher& b_;
    const unsigned launcher_;
    std::size_t count_ = 0;
    bool have_count_ = false;
    bool clean_ = false;
    bool keep_flag_ = false;
    std::exception_ptr error_;
  };

  // The paper's LAUNCHBATCH (Fig. 4).  Runs in batch context on the worker
  // that won the batch-flag CAS.  Never lets an exception escape: failures
  // are recorded in the collected op records by the BatchGuard.
  void launch_batch();

  // LAUNCHBATCH collect (DESIGN.md §11): claim the announce list with one
  // exchange and walk it, flipping Pending -> Executing and densely filling
  // working_/claimed_.  O(batch) work, no P-slot scan.
  std::size_t collect();
  // Flips the collected slots claimed_[0..claimed_count_) to Done, recording
  // `error` (may be null) in each op record first.  Returns the number of
  // slots flipped.
  std::size_t complete(const std::exception_ptr& error);
  // Recovery: fails exactly the claimed list — the already-collected slots
  // (Executing) and, after a throw inside the claim walk, the claimed-but-
  // uncollected remainder (still Pending, but off the announce stack, so no
  // later batch could ever pick them up), which it takes first and then
  // completes with the rest.
  std::size_t fail_claimed(const std::exception_ptr& error);

  rt::Scheduler& sched_;
  BatchedStructure& ds_;
  // Small id naming this domain in 16-byte trace records (src/trace);
  // registered for the Batcher's lifetime.
  const std::uint16_t trace_id_;

  std::vector<Slot> slots_;                  // the pending array (size P)
  std::vector<OpRecordBase*> working_;       // the working set (size <= P)

  alignas(kCacheLineSize) std::atomic<std::uint32_t> batch_flag_{0};
  std::atomic<std::int32_t> batches_running_{0};  // Invariant 1 check

  // Owners push their slot after the publish edge; the launcher claims.
  AnnounceList<Slot> announced_;
  // Launcher-private bookkeeping for the current launch (valid only under
  // the batch flag): the slots this launch flipped to Executing, and — while
  // the claim walk is still running — the claimed-but-unprocessed tail.
  std::vector<Slot*> claimed_;               // size <= P
  std::size_t claimed_count_ = 0;
  Slot* claimed_rest_ = nullptr;
  std::size_t chain_limit_;                  // launches per flag hold (>= 1)

  // Stats.  Launch-side cells are written only under the batch flag (single
  // writer at a time); announce_pushes / flag_cas_failures are bumped by
  // trapped owners and need real read-modify-writes.
  struct StatsCells {
    std::atomic<std::uint64_t> batches_launched{0};
    std::atomic<std::uint64_t> empty_batches{0};
    std::atomic<std::uint64_t> failed_batches{0};
    std::atomic<std::uint64_t> clean_nonempty_batches{0};
    std::atomic<std::uint64_t> ops_processed{0};
    std::atomic<std::uint64_t> ops_failed{0};
    std::atomic<std::uint64_t> ops_succeeded{0};
    std::atomic<std::uint64_t> max_batch_size{0};
    std::atomic<std::uint64_t> announce_pushes{0};
    std::atomic<std::uint64_t> chained_launches{0};
    std::atomic<std::uint64_t> flag_cas_failures{0};
    std::vector<std::atomic<std::uint64_t>> histogram;
  };
  StatsCells stat_cells_;
};

}  // namespace batcher
