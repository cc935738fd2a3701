#include "audit/stall_watchdog.hpp"

#include <sstream>

namespace batcher::audit {

namespace hooks = rt::hooks;

StallWatchdog::StallWatchdog(unsigned num_workers)
    : StallWatchdog(num_workers, Options{}) {}

StallWatchdog::StallWatchdog(unsigned num_workers, Options options,
                             const InvariantAuditor* model)
    : options_(options), model_(model), traps_(num_workers) {}

void StallWatchdog::flag(const void* domain, unsigned worker,
                         std::uint64_t elapsed, std::string what) {
  // mu_ is held by the caller.
  stall_count_.fetch_add(1, std::memory_order_relaxed);
  StallReport report;
  report.domain = domain;
  report.worker = worker;
  report.events_elapsed = elapsed;
  report.what = std::move(what);
  if (model_ != nullptr) report.model_dump = model_->state_dump();
  // Escalation is never capped: even past kMaxReports a wedged domain must
  // still reach its handler.
  if (handler_) pending_escalations_.push_back(report);
  if (reports_.size() >= kMaxReports) return;
  reports_.push_back(std::move(report));
}

std::vector<StallReport> StallWatchdog::take_pending_escalations() {
  // mu_ is held by the caller.
  std::vector<StallReport> pending;
  pending.swap(pending_escalations_);
  return pending;
}

void StallWatchdog::dispatch_escalations(std::vector<StallReport> pending) {
  // mu_ is released: the handler typically quarantines a domain, which walks
  // status edges and emits hooks that re-enter on_event on this very thread.
  // handler_ is written only from quiesced points (see header), so the
  // unlocked reads here do not race an install.
  for (const StallReport& report : pending) handler_(report);
}

void StallWatchdog::set_escalation_handler(EscalationHandler handler) {
  std::lock_guard<std::mutex> lock(mu_);
  handler_ = std::move(handler);
}

void StallWatchdog::scan(std::uint64_t now_events,
                         Clock::time_point now_clock) {
  // mu_ is held by the caller.  Event numbers are taken from the atomic
  // counter *before* the mutex, so a watch started by a concurrent thread
  // can carry a number slightly ahead of this scan's — saturate instead of
  // underflowing.
  auto elapsed_since = [now_events](std::uint64_t since) {
    return now_events > since ? now_events - since : 0;
  };
  const bool use_clock = options_.wall_budget_ms != 0;
  const auto wall_budget = std::chrono::milliseconds(options_.wall_budget_ms);
  for (auto& [domain, dw] : domains_) {
    if (dw.holder == hooks::kNoWorker || dw.flagged) continue;
    const std::uint64_t elapsed = elapsed_since(dw.acquired_at_event);
    const bool over_events = elapsed >= options_.flag_hold_event_budget;
    const bool over_clock =
        use_clock && (now_clock - dw.acquired_at) >= wall_budget;
    if (over_events || over_clock) {
      dw.flagged = true;
      std::ostringstream os;
      os << "batch flag of domain " << domain << " held by worker "
         << dw.holder << " for " << elapsed << " events"
         << (over_clock ? " (wall budget also exceeded)" : "")
         << " — LAUNCHBATCH appears stuck; trapped workers cannot resume";
      flag(domain, dw.holder, elapsed, os.str());
    }
  }
  for (std::size_t w = 0; w < traps_.size(); ++w) {
    TrapWatch& tw = traps_[w];
    if (!tw.trapped || tw.flagged) continue;
    const std::uint64_t elapsed = elapsed_since(tw.since_event);
    const bool over_events = elapsed >= options_.trap_event_budget;
    const bool over_clock = use_clock && (now_clock - tw.since) >= wall_budget;
    if (over_events || over_clock) {
      tw.flagged = true;
      std::ostringstream os;
      os << "worker " << w << " trapped in domain " << tw.domain << " for "
         << elapsed << " events"
         << (over_clock ? " (wall budget also exceeded)" : "")
         << " — its operation never completed";
      flag(tw.domain, static_cast<unsigned>(w), elapsed, os.str());
    }
  }
}

void StallWatchdog::on_event(const rt::hooks::Event& event) {
  using P = hooks::EventId;
  const std::uint64_t now =
      events_.fetch_add(1, std::memory_order_relaxed) + 1;

  const bool tracks_state =
      event.id == P::kFlagWon || event.id == P::kLaunchExit ||
      event.id == P::kLaunchChained || event.id == P::kOpSubmit ||
      event.id == P::kOpResume;
  if (!tracks_state && now % kScanPeriod != 0) return;

  std::vector<StallReport> pending;
  {
  std::lock_guard<std::mutex> lock(mu_);
  const Clock::time_point now_clock =
      options_.wall_budget_ms != 0 ? Clock::now() : Clock::time_point{};
  switch (event.id) {
    case P::kFlagWon: {
      DomainWatch& dw = domains_[event.domain];
      dw.holder = event.worker;
      dw.acquired_at_event = now;
      dw.acquired_at = now_clock;
      dw.flagged = false;
      break;
    }
    case P::kLaunchExit: {
      DomainWatch& dw = domains_[event.domain];
      dw.holder = hooks::kNoWorker;
      dw.flagged = false;
      break;
    }
    case P::kLaunchChained: {
      // A chained launch keeps the flag held across launches; restart the
      // hold budget so a healthy chain of short launches is not mistaken for
      // one stuck LAUNCHBATCH.
      DomainWatch& dw = domains_[event.domain];
      dw.holder = event.worker;
      dw.acquired_at_event = now;
      dw.acquired_at = now_clock;
      dw.flagged = false;
      break;
    }
    case P::kOpSubmit: {
      if (event.worker >= traps_.size()) traps_.resize(event.worker + 1);
      TrapWatch& tw = traps_[event.worker];
      tw.trapped = true;
      tw.domain = event.domain;
      tw.since_event = now;
      tw.since = now_clock;
      tw.flagged = false;
      break;
    }
    case P::kOpResume: {
      if (event.worker < traps_.size()) {
        traps_[event.worker].trapped = false;
        traps_[event.worker].flagged = false;
      }
      break;
    }
    default:
      break;
  }
  scan(now, now_clock);
  pending = take_pending_escalations();
  }
  if (!pending.empty()) dispatch_escalations(std::move(pending));
}

void StallWatchdog::check_now() {
  std::vector<StallReport> pending;
  {
    std::lock_guard<std::mutex> lock(mu_);
    scan(events_.load(std::memory_order_relaxed), Clock::now());
    pending = take_pending_escalations();
  }
  if (!pending.empty()) dispatch_escalations(std::move(pending));
}

void StallWatchdog::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  events_.store(0, std::memory_order_relaxed);
  stall_count_.store(0, std::memory_order_relaxed);
  domains_.clear();
  for (auto& tw : traps_) tw = TrapWatch{};
  reports_.clear();
  pending_escalations_.clear();
}

bool StallWatchdog::stalled() const {
  return stall_count_.load(std::memory_order_relaxed) != 0;
}

std::uint64_t StallWatchdog::stall_count() const {
  return stall_count_.load(std::memory_order_relaxed);
}

std::vector<StallReport> StallWatchdog::reports() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reports_;
}

std::string StallWatchdog::report() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "StallWatchdog: " << events_.load(std::memory_order_relaxed)
     << " events observed, " << stall_count_.load(std::memory_order_relaxed)
     << " stall(s) flagged\n";
  for (const StallReport& r : reports_) {
    os << "  [stall] " << r.what << "\n";
    if (!r.model_dump.empty()) {
      std::istringstream lines(r.model_dump);
      std::string line;
      while (std::getline(lines, line)) os << "    " << line << "\n";
    }
  }
  return os.str();
}

}  // namespace batcher::audit
