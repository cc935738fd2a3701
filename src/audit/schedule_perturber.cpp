#include "audit/schedule_perturber.hpp"

#include <thread>

#include "runtime/worker.hpp"
#include "support/backoff.hpp"

namespace batcher::audit {

namespace {

// splitmix64 finalizer: the per-event decision hash.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

SchedulePerturber::SchedulePerturber(unsigned num_workers, std::uint64_t seed,
                                     Options options)
    : seed_(seed), options_(options), lanes_(num_workers + 1) {}

SchedulePerturber::SchedulePerturber(unsigned num_workers, std::uint64_t seed)
    : SchedulePerturber(num_workers, seed, Options{}) {}

unsigned SchedulePerturber::lane_for_caller() const {
  const rt::Worker* w = rt::Worker::current();
  if (w == nullptr) return static_cast<unsigned>(lanes_.size() - 1);
  const unsigned id = w->id();
  return id < lanes_.size() - 1 ? id
                                : static_cast<unsigned>(lanes_.size() - 1);
}

std::uint8_t SchedulePerturber::decision_at(std::uint64_t seed, unsigned lane,
                                            std::uint64_t index) const {
  const std::uint64_t r = mix64(
      seed + 0x9e3779b97f4a7c15ULL * (lane + 1) + 0xd1b54a32d192ed03ULL * index);
  if (options_.yield_one_in != 0 && r % options_.yield_one_in == 0) return 1;
  if (options_.pause_one_in != 0 && (r >> 32) % options_.pause_one_in == 0) {
    return 2;
  }
  return 0;
}

void SchedulePerturber::perturb(Lane& lane) {
  const unsigned lane_index = static_cast<unsigned>(&lane - lanes_.data());
  const std::uint64_t index = lane.count++;
  const std::uint8_t decision = decision_at(seed_, lane_index, index);
  if (options_.record_trace && lane.decisions.size() < options_.max_trace_len) {
    lane.decisions.push_back(decision);
  }
  switch (decision) {
    case 1:
      std::this_thread::yield();
      break;
    case 2: {
      // Spin count derived from the same hash so replays spin identically.
      const std::uint64_t r =
          mix64(seed_ ^ (index + 1) * 0x2545f4914f6cdd1dULL ^ lane_index);
      const std::uint64_t spins = 1 + r % options_.max_pause_spins;
      for (std::uint64_t i = 0; i < spins; ++i) cpu_relax();
      break;
    }
    default:
      break;
  }
}

void SchedulePerturber::on_event(const rt::hooks::Event& /*event*/) {
  const unsigned lane = lane_for_caller();
  if (lane + 1 == lanes_.size()) {
    // Non-worker threads share the last lane; serialize them.
    std::lock_guard<std::mutex> lock(external_mu_);
    perturb(lanes_[lane]);
  } else {
    // Worker lanes are single-writer: only worker `lane`'s thread gets here.
    perturb(lanes_[lane]);
  }
}

void SchedulePerturber::reseed(std::uint64_t seed) {
  std::lock_guard<std::mutex> lock(external_mu_);
  seed_ = seed;
  for (Lane& lane : lanes_) {
    lane.count = 0;
    lane.decisions.clear();
  }
}

const std::vector<std::uint8_t>& SchedulePerturber::trace(unsigned lane) const {
  return lanes_[lane].decisions;
}

std::uint64_t SchedulePerturber::events_perturbed(unsigned lane) const {
  return lanes_[lane].count;
}

std::uint64_t SchedulePerturber::trace_fingerprint() const {
  // Per-lane FNV-1a, combined order-insensitively across lanes (each lane's
  // hash is salted by its index, so swapping lanes still changes the digest).
  std::uint64_t combined = 0;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ (lane * 0x100000001b3ULL);
    for (std::uint8_t d : lanes_[lane].decisions) {
      h = (h ^ d) * 0x100000001b3ULL;
    }
    h = (h ^ lanes_[lane].count) * 0x100000001b3ULL;
    combined += mix64(h + lane);
  }
  return combined;
}

}  // namespace batcher::audit
