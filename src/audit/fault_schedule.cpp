#include "audit/fault_schedule.hpp"

#include <algorithm>
#include <sstream>

#include "support/backoff.hpp"
#include "support/rng.hpp"

namespace batcher::audit {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kThrowInBop: return "throw-in-bop";
    case FaultKind::kDelay: return "delay";
    case FaultKind::kBadAlloc: return "bad-alloc";
    case FaultKind::kWedgeExternal: return "wedge-external";
  }
  return "?";
}

FaultSchedule::FaultSchedule(std::uint64_t seed)
    : FaultSchedule(seed, Options{}) {}

FaultSchedule::FaultSchedule(std::uint64_t seed, Options options)
    : options_(options), seed_(seed) {
  if (options_.external_tids > 0) {
    wedged_size_ = options_.external_tids;
    wedged_ = std::make_unique<std::atomic<bool>[]>(wedged_size_);
    for (std::size_t i = 0; i < wedged_size_; ++i) {
      wedged_[i].store(false, std::memory_order_relaxed);
    }
  }
  generate();
}

void FaultSchedule::generate() {
  actions_.clear();
  FaultKind menu[4];
  std::size_t menu_size = 0;
  if (options_.enable_throw_in_bop) menu[menu_size++] = FaultKind::kThrowInBop;
  if (options_.enable_delay) menu[menu_size++] = FaultKind::kDelay;
  if (options_.enable_bad_alloc) menu[menu_size++] = FaultKind::kBadAlloc;
  if (options_.external_tids > 0) menu[menu_size++] = FaultKind::kWedgeExternal;
  if (menu_size == 0 || options_.max_actions == 0) return;

  Xoshiro256 rng(seed_);
  const std::size_t count = 1 + rng.next_below(options_.max_actions);
  actions_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FaultAction action;
    action.kind = menu[rng.next_below(menu_size)];
    action.at_event = 1 + rng.next_below(options_.horizon_events);
    switch (action.kind) {
      case FaultKind::kDelay:
        action.magnitude = 1 + rng.next_below(options_.max_delay_spins);
        break;
      case FaultKind::kWedgeExternal:
        action.magnitude = rng.next_below(options_.external_tids);
        break;
      default:
        action.magnitude = 0;
        break;
    }
    actions_.push_back(action);
  }
  std::stable_sort(actions_.begin(), actions_.end(),
                   [](const FaultAction& a, const FaultAction& b) {
                     return a.at_event < b.at_event;
                   });
}

void FaultSchedule::fire_action(const FaultAction& action) {
  switch (action.kind) {
    case FaultKind::kThrowInBop:
#if BATCHER_AUDIT
      rt::hooks::test_faults().throw_in_bop.store(1,
                                                  std::memory_order_relaxed);
#endif
      break;
    case FaultKind::kBadAlloc:
#if BATCHER_AUDIT
      rt::hooks::test_faults().throw_bad_alloc.store(
          1, std::memory_order_relaxed);
#endif
      break;
    case FaultKind::kDelay:
      // Hold the emitting thread at this protocol point.  The spin is
      // bounded (max_delay_spins), so it can stretch a race window but never
      // wedge the run.
      for (std::uint64_t i = 0; i < action.magnitude; ++i) cpu_relax();
      break;
    case FaultKind::kWedgeExternal:
      wedged_[action.magnitude].store(true, std::memory_order_release);
      break;
  }
  fired_.fetch_add(1, std::memory_order_relaxed);
}

void FaultSchedule::on_event(const rt::hooks::Event&) {
  const std::uint64_t now = events_.fetch_add(1, std::memory_order_relaxed) + 1;
  // Common case: schedule exhausted or next action still ahead — one load.
  std::size_t cur = cursor_.load(std::memory_order_acquire);
  while (cur < actions_.size() && actions_[cur].at_event <= now) {
    // Claim the action with a CAS so exactly one racing thread fires it.
    if (cursor_.compare_exchange_weak(cur, cur + 1,
                                      std::memory_order_acq_rel)) {
      fire_action(actions_[cur]);
      cur = cursor_.load(std::memory_order_acquire);
    }
    // On CAS failure `cur` was reloaded: another thread claimed it.
  }
}

void FaultSchedule::reseed(std::uint64_t seed) {
  seed_ = seed;
  events_.store(0, std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
  fired_.store(0, std::memory_order_relaxed);
  for (std::size_t i = 0; i < wedged_size_; ++i) {
    wedged_[i].store(false, std::memory_order_relaxed);
  }
  generate();
}

std::string FaultSchedule::describe() const {
  std::ostringstream os;
  os << "FaultSchedule(seed=" << seed_ << "): " << actions_.size()
     << " action(s), " << fired_.load(std::memory_order_relaxed)
     << " fired of " << events_.load(std::memory_order_relaxed)
     << " events\n";
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    const FaultAction& a = actions_[i];
    os << "  #" << i << " @event " << a.at_event << " "
       << fault_kind_name(a.kind);
    if (a.kind == FaultKind::kDelay) {
      os << "(" << a.magnitude << " spins)";
    } else if (a.kind == FaultKind::kWedgeExternal) {
      os << "(tid " << a.magnitude << ")";
    }
    os << (i < cursor_.load(std::memory_order_relaxed) ? "  [fired]" : "")
       << "\n";
  }
  return os.str();
}

}  // namespace batcher::audit
