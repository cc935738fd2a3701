// FaultSchedule — the seeded chaos engine (DESIGN.md §13).
//
// One seed deterministically expands into a small *schedule* of fault
// actions, each pinned to a process-wide hook-event count; installed as a
// ScheduleObserver the engine counts events and fires each action exactly
// once when its event number is crossed, on whichever thread crossed it.
// Sweeping seeds therefore sweeps distinct (when, what, where) fault
// combinations the way the SchedulePerturber sweeps interleavings, and a
// failing seed is a complete repro recipe: `describe()` prints the schedule
// the seed denotes.
//
// The action vocabulary (the schedule "grammar"):
//
//   throw-in-bop      arm hooks::test_faults().throw_in_bop — the next BOP
//                     throws InjectedFault, exercising exact-batch failure
//   delay(N)          spin N times in place inside the hook callback, holding
//                     the emitting thread at that protocol point (stretches
//                     races the way the perturber does, but at a seeded
//                     *global* event index rather than per-lane)
//   bad-alloc         arm test_faults().throw_bad_alloc — the next FramePool
//                     slab refill or global fallback throws std::bad_alloc
//   wedge-external(t) mark external tid t wedged; the chaos harness polls
//                     external_wedged(t) and silences that client thread (it
//                     stops submitting and never returns), so shutdown must
//                     drain around an absent participant
//
// The engine *arms* faults through the same TestFaults substrate the ad-hoc
// tests use, so one mechanism underlies both; the schedule replaces
// hand-placed arming calls with a seeded generator.  Armed-but-unfired
// countdowns can outlive a run (e.g. throw-in-bop scheduled after the last
// batch) — harnesses reset test_faults() between seeds, exactly like the
// existing fault matrix does.
//
// The observer is buildable in every config (like the rest of src/audit);
// without BATCHER_AUDIT no events flow and the arming actions are inert.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/schedule_hooks.hpp"

namespace batcher::audit {

enum class FaultKind : std::uint8_t {
  kThrowInBop,
  kDelay,
  kBadAlloc,
  kWedgeExternal,
};

const char* fault_kind_name(FaultKind kind);

struct FaultAction {
  FaultKind kind;
  std::uint64_t at_event;   // fires when the event count crosses this
  std::uint64_t magnitude;  // kDelay: spins; kWedgeExternal: tid; else 0
};

class FaultSchedule final : public rt::hooks::ScheduleObserver {
 public:
  struct Options {
    // Actions per schedule: uniform in [1, max_actions].
    std::size_t max_actions = 4;
    // Fire events are uniform in [1, horizon_events]; actions past the run's
    // actual event count simply never fire (fired_count() reports how many
    // did).
    std::uint64_t horizon_events = 20000;
    // kDelay magnitude: uniform in [1, max_delay_spins] cpu_relax spins.
    std::uint32_t max_delay_spins = 4096;
    // Enables kWedgeExternal with tids drawn from [0, external_tids); 0
    // removes it from the menu.
    std::size_t external_tids = 0;
    bool enable_throw_in_bop = true;
    bool enable_delay = true;
    bool enable_bad_alloc = true;
  };

  explicit FaultSchedule(std::uint64_t seed);
  FaultSchedule(std::uint64_t seed, Options options);

  void on_event(const rt::hooks::Event& event) override;

  // Regenerate the schedule from a new seed and clear all firing state.
  // Call only while no scheduler can emit.
  void reseed(std::uint64_t seed);

  std::uint64_t seed() const { return seed_; }
  const std::vector<FaultAction>& actions() const { return actions_; }
  std::uint64_t events_observed() const {
    return events_.load(std::memory_order_relaxed);
  }
  std::size_t fired_count() const {
    return fired_.load(std::memory_order_relaxed);
  }
  // True once a kWedgeExternal action for `tid` has fired.
  bool external_wedged(std::size_t tid) const {
    return tid < wedged_size_ &&
           wedged_[tid].load(std::memory_order_acquire);
  }

  // One line per action — the human-readable form of what the seed denotes.
  std::string describe() const;

 private:
  void generate();
  void fire_action(const FaultAction& action);

  Options options_;
  std::uint64_t seed_;
  std::vector<FaultAction> actions_;  // sorted by at_event
  std::atomic<std::uint64_t> events_{0};
  std::atomic<std::size_t> cursor_{0};  // first action not yet claimed
  std::atomic<std::size_t> fired_{0};
  std::unique_ptr<std::atomic<bool>[]> wedged_;
  std::size_t wedged_size_ = 0;
};

}  // namespace batcher::audit
