// StallWatchdog — detects a wedged BATCHER protocol instead of letting a
// test (or a serving process) hang silently.
//
// The failure mode it exists for is the pre-recovery bug class of DESIGN.md
// §8: a batch flag that never reopens, or a trapped worker whose slot never
// flips to done, leaves every trapped worker spinning in batchify forever.
// Crucially, those spinning workers keep emitting schedule hooks (their
// batch-deque pops and steal attempts), so the stall is visible as *events
// flowing while the flag stays held / the worker stays trapped*.  The
// watchdog therefore measures budgets in observed events — deterministic
// and replayable, like everything else in src/audit — with an optional
// wall-clock budget for belt and braces.
//
// A totally silent deadlock (every thread parked, no events at all) cannot
// trigger an event-driven observer; call check_now() from a supervising
// thread to evaluate the wall-clock budgets on demand in that case.
//
// When a stall is flagged the report embeds the InvariantAuditor's protocol
// state model (if one is attached), naming the wedged domain's flag holder
// and slot statuses and every trapped worker — the diagnostic one would
// otherwise reconstruct by hand from a hung core dump.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "audit/invariant_auditor.hpp"
#include "runtime/schedule_hooks.hpp"

namespace batcher::audit {

struct StallReport {
  const void* domain;          // wedged domain; nullptr for a trapped-worker stall
  unsigned worker;             // flag holder / trapped worker
  std::uint64_t events_elapsed;
  std::string what;            // human-readable description
  std::string model_dump;      // auditor state at detection (if attached)
};

class StallWatchdog final : public rt::hooks::ScheduleObserver {
 public:
  struct Options {
    // Events observed (process-wide) while one batch flag stays held before
    // the domain is flagged as stalled.  A healthy launch holds the flag for
    // O(P) of its own events plus the trapped workers' spin events; the
    // default is far above anything a live launch produces.
    std::uint64_t flag_hold_event_budget = 1u << 20;
    // Events observed while one worker stays trapped on the same op.
    std::uint64_t trap_event_budget = 1u << 21;
    // Wall-clock budget for the same conditions; 0 disables the clock check.
    std::uint64_t wall_budget_ms = 0;
  };

  explicit StallWatchdog(unsigned num_workers);
  StallWatchdog(unsigned num_workers, Options options,
                const InvariantAuditor* model = nullptr);

  void on_event(const rt::hooks::Event& event) override;

  // Evaluates the wall-clock budgets immediately (from any thread) — the
  // escape hatch for fully silent deadlocks where no events flow.  Wire it
  // into ExternalDomain::Options::stall_probe so the threads a wedged pump
  // blocks are the ones that detect the wedge.
  void check_now();

  // Escalation seam (DESIGN.md §13): each newly flagged stall invokes the
  // handler exactly once, *outside* the watchdog's lock and on whichever
  // thread detected it (an emitting worker inside on_event, or a check_now
  // caller).  The intended handler quarantines the wedged domain —
  // ExternalDomain::quarantine fails its records through legal edges — so
  // the handler may emit hooks and re-enter this watchdog freely.  Install
  // before events flow, or from a quiesced point; pass nullptr to clear.
  using EscalationHandler = std::function<void(const StallReport&)>;
  void set_escalation_handler(EscalationHandler handler);

  // Forget all tracked state and reports (e.g. between sweep seeds).  Call
  // only while no scheduler can emit.
  void reset();

  bool stalled() const;
  std::uint64_t stall_count() const;
  std::vector<StallReport> reports() const;
  std::string report() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct DomainWatch {
    unsigned holder = rt::hooks::kNoWorker;
    std::uint64_t acquired_at_event = 0;
    Clock::time_point acquired_at{};
    bool flagged = false;
  };

  struct TrapWatch {
    bool trapped = false;
    const void* domain = nullptr;
    std::uint64_t since_event = 0;
    Clock::time_point since{};
    bool flagged = false;
  };

  static constexpr std::size_t kMaxReports = 32;
  // Full budget scans run every kScanPeriod events; detection latency is
  // coarse anyway (budgets are large) and this keeps the hot path to one
  // atomic increment for the non-batching event majority.
  static constexpr std::uint64_t kScanPeriod = 64;

  void flag(const void* domain, unsigned worker, std::uint64_t elapsed,
            std::string what);
  void scan(std::uint64_t now_events, Clock::time_point now_clock);
  // Moves out the stalls flagged since the last drain; mu_ must be held.
  std::vector<StallReport> take_pending_escalations();
  // Runs the handler on each report; call with mu_ released.
  void dispatch_escalations(std::vector<StallReport> pending);

  const Options options_;
  const InvariantAuditor* const model_;  // optional, not owned
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::uint64_t> stall_count_{0};
  mutable std::mutex mu_;
  std::unordered_map<const void*, DomainWatch> domains_;
  std::vector<TrapWatch> traps_;
  std::vector<StallReport> reports_;
  EscalationHandler handler_;
  std::vector<StallReport> pending_escalations_;
};

}  // namespace batcher::audit
