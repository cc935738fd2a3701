// Seeded, deterministic schedule perturbation.
//
// Installed as a hook observer, the perturber injects pauses and yields at
// schedule hook points so a stress run explores an interleaving far from the
// hardware's default.  Every decision is a pure function of
// (seed, lane, event index) — a lane is the emitting thread: worker i uses
// lane i, non-worker threads share lane P — so the decision *sequence* each
// thread experiences is reproducible from the seed alone: replaying a
// failing seed replays the exact per-thread decision stream regardless of
// how the OS interleaves the threads.  Sweeping seeds therefore sweeps
// distinct schedules, and a failing seed is a complete repro recipe.
//
// Decisions (recorded per lane when tracing is on):
//   0 = no perturbation
//   1 = std::this_thread::yield()
//   2 = bounded cpu_relax spin
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "runtime/schedule_hooks.hpp"
#include "support/config.hpp"

namespace batcher::audit {

class SchedulePerturber final : public rt::hooks::ScheduleObserver {
 public:
  struct Options {
    std::uint32_t yield_one_in = 64;  // P(yield) = 1/yield_one_in
    std::uint32_t pause_one_in = 8;   // P(spin)  = 1/pause_one_in (if no yield)
    std::uint32_t max_pause_spins = 64;
    bool record_trace = true;
    std::size_t max_trace_len = 1 << 14;  // per lane
  };

  // `num_workers` sizes the lanes; lane `num_workers` serves non-worker
  // threads (synthetic streams, ExternalDomain publishers).
  SchedulePerturber(unsigned num_workers, std::uint64_t seed, Options options);
  SchedulePerturber(unsigned num_workers, std::uint64_t seed);  // default opts

  void on_event(const rt::hooks::Event& event) override;

  // Restart the decision streams from a new seed.  Call only while no
  // scheduler can emit.
  void reseed(std::uint64_t seed);
  std::uint64_t seed() const { return seed_; }

  // The decision a given lane takes at its index-th event: the replay
  // contract is decision_at(seed, lane, index) == the decision taken live.
  std::uint8_t decision_at(std::uint64_t seed, unsigned lane,
                           std::uint64_t index) const;

  // Recorded decision stream of one lane (valid after emitting threads quiesce).
  const std::vector<std::uint8_t>& trace(unsigned lane) const;
  std::uint64_t events_perturbed(unsigned lane) const;

  // Order-insensitive digest of all lanes' decision streams: two runs of the
  // same per-lane schedules produce equal fingerprints.
  std::uint64_t trace_fingerprint() const;

 private:
  struct alignas(kCacheLineSize) Lane {
    std::uint64_t count = 0;             // written only by the owning thread
    std::vector<std::uint8_t> decisions;
  };

  unsigned lane_for_caller() const;
  void perturb(Lane& lane);

  std::uint64_t seed_;
  Options options_;
  std::vector<Lane> lanes_;
  std::mutex external_mu_;  // serializes the shared non-worker lane
};

}  // namespace batcher::audit
