// One-stop harness for audited, seed-perturbed runs: owns an
// InvariantAuditor, a StallWatchdog, and a SchedulePerturber, forwards every
// hook event to all three (audit first, so the model records the event
// before the watchdog consults it and the schedule is shaken), and
// installs/uninstalls itself as the process-wide observer.
//
// Typical schedule sweep:
//
//   AuditSession session(P, /*seed=*/0);
//   session.install();
//   for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
//     session.reseed(seed);
//     { rt::Scheduler sched(P); ... run the scenario ... }  // sched destroyed
//     ASSERT_TRUE(session.auditor().clean()) << session.auditor().report();
//     ASSERT_FALSE(session.watchdog().stalled()) << session.watchdog().report();
//   }
//   session.uninstall();
//
// reseed() must only run while no scheduler can emit (e.g. after the
// scenario's Scheduler has been destroyed, as above).
#pragma once

#include <cstdint>

#include "audit/invariant_auditor.hpp"
#include "audit/schedule_perturber.hpp"
#include "audit/stall_watchdog.hpp"
#include "runtime/schedule_hooks.hpp"

namespace batcher::audit {

class AuditSession final : public rt::hooks::ScheduleObserver {
 public:
  AuditSession(unsigned num_workers, std::uint64_t seed,
               SchedulePerturber::Options options = {},
               StallWatchdog::Options watchdog_options = {})
      : auditor_(num_workers),
        watchdog_(num_workers, watchdog_options, &auditor_),
        perturber_(num_workers, seed, options) {}

  ~AuditSession() { uninstall(); }

  AuditSession(const AuditSession&) = delete;
  AuditSession& operator=(const AuditSession&) = delete;

  void install() {
    rt::hooks::install_observer(this);
    installed_ = true;
  }

  void uninstall() {
    if (installed_) rt::hooks::install_observer(nullptr);
    installed_ = false;
  }

  void reseed(std::uint64_t seed) {
    auditor_.reset();
    watchdog_.reset();
    perturber_.reseed(seed);
  }

  void on_event(const rt::hooks::Event& event) override {
    auditor_.on_event(event);
    watchdog_.on_event(event);
    perturber_.on_event(event);
  }

  InvariantAuditor& auditor() { return auditor_; }
  StallWatchdog& watchdog() { return watchdog_; }
  SchedulePerturber& perturber() { return perturber_; }

 private:
  InvariantAuditor auditor_;
  StallWatchdog watchdog_;
  SchedulePerturber perturber_;
  bool installed_ = false;
};

}  // namespace batcher::audit
