// Runtime invariant auditor for the BATCHER scheduler.
//
// Consumes the schedule-hook event stream (runtime/schedule_hooks.hpp) and
// maintains an exact model of the protocol state: per-domain batch-flag
// holder and active-launch nesting, per-(domain, worker) operation status,
// per-worker trapped/free state and alternating-steal parity.  Every event is
// checked against the paper's rules:
//
//   Invariant 1  at most one active batch per domain (flag protocol +
//                LAUNCHBATCH nesting);
//   Invariant 2  a batch contains at most P operations;
//   Invariant 3  dag/deque separation — batch-context workers and trapped
//                workers never touch core deques, and tasks are pushed from
//                the dag context that matches their kind;
//   Fig. 3       the trapped-worker status machine advances strictly
//                free -> pending -> executing -> done -> free, with the
//                pending/done edges owned by the trapped worker and the
//                executing edges owned by the (unique) launcher;
//   §4           a free worker's steal attempts alternate strictly between
//                core and batch deques;
//   §11          the announce-list protocol (DESIGN.md §11): a worker only
//                announces a slot it holds pending, the announce list is
//                claimed by the flag holder from inside a launch, and a
//                chained launch is started only by the worker whose launch
//                just exited under the still-held flag.
//
// The auditor is a plain state machine over events: it can audit a live
// scheduler (installed as the hook observer, mutex-serialized) or a synthetic
// event stream in any build type, which is how tests prove that broken
// schedules are caught.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/schedule_hooks.hpp"

namespace batcher::audit {

struct Violation {
  std::string invariant;  // e.g. "Invariant 1 (one active batch)"
  unsigned worker;        // subject worker, hooks::kNoWorker if none
  std::string detail;     // offending transition, human-readable
};

class InvariantAuditor final : public rt::hooks::ScheduleObserver {
 public:
  explicit InvariantAuditor(unsigned num_workers);

  void on_event(const rt::hooks::Event& event) override;

  // Forgets all model state and recorded violations (e.g. between seeds of a
  // schedule sweep).  Call only while no scheduler can emit.
  void reset();

  std::uint64_t events_observed() const;
  std::uint64_t violation_count() const;
  std::vector<Violation> violations() const;  // first kMaxRecorded kept
  bool clean() const { return violation_count() == 0; }

  // Multi-line report naming, for every violation, the invariant, the worker
  // and the offending transition.
  std::string report() const;

  // Snapshot of the protocol state model — per-domain flag holder, launch
  // nesting, and slot statuses; per-worker trapped state.  The StallWatchdog
  // embeds this in its diagnostics so a flagged stall names exactly which
  // domain is wedged and which workers are waiting on it.
  std::string state_dump() const;

 private:
  // Mirror of batcher::OpStatus, tracked per (domain, worker).
  enum class Status : std::uint8_t { Free, Pending, Executing, Done };

  struct WorkerState {
    bool trapped = false;
    const void* trapped_domain = nullptr;
    int last_alternating = -1;  // -1 = no attempt seen yet, else TaskKind
  };

  struct DomainState {
    unsigned flag_holder;
    int active_launches = 0;
    // The worker whose launch most recently exited — the only worker a
    // kLaunchChained event may legally come from (the flag never reopened
    // between its exit and the chained launch).
    unsigned last_launcher;
    std::vector<Status> status;  // per worker
  };

  static constexpr std::size_t kMaxRecorded = 128;

  DomainState& domain_state(const void* domain);
  WorkerState& worker_state(unsigned worker);
  void check_status_edge(const rt::hooks::Event& event, Status from,
                         Status to);
  void violate(const rt::hooks::Event& event, std::string invariant,
               std::string detail);

  const unsigned num_workers_;
  mutable std::mutex mu_;
  std::uint64_t events_ = 0;
  std::uint64_t violation_count_ = 0;
  std::vector<WorkerState> workers_;
  std::unordered_map<const void*, DomainState> domains_;
  std::vector<Violation> violations_;
};

}  // namespace batcher::audit
