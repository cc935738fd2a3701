// Open-loop load generator for the batched service front-end (DESIGN.md §15).
//
// Closed-loop drivers (every bench so far) submit the next op when the last
// one resolves, so a slow server politely slows its own load — and its
// latency numbers lie.  A service is measured open loop: requests arrive on
// a wall-clock schedule that does not care how the server is doing, and
// latency is measured from the *intended* arrival time, so client-side
// queueing behind a slow request is charged to the server (the standard
// coordinated-omission correction).
//
// The arrival schedule is the simulator's, made real: a seeded
// sim::ScenarioGen supplies both the op tape (which keys, uniform / zipfian
// / working-set skew) and the ArrivalProcess (which instant, uniform pacing
// or flash-crowd waves), mapped to nanoseconds by the configured rate:
//
//   1-wave shapes:  t_i = i * ns_per_req + jitter_i * (ns_per_req / 4)
//   flash crowds:   t_i = wave_i * (burst * ns_per_req
//                                   + quiet * (ns_per_req / 4))
//                         + jitter_i * (ns_per_req / 4)
//
// so `rate` is the steady offered rate for 1-wave shapes and the *in-burst*
// rate for flash crowds (a crowd is `burst` requests inside roughly a burst
// window, then a quiet gap — the configured rate names the crowd's
// intensity, not the long-run average).  Leaf i is replayed by client
// thread i mod clients; same seed, same schedule, same keys, exactly.
//
// Each request resolves to exactly one Outcome, so the generator's ledger
//   ok + failed + timed_out + shed == requests
// is the client-side mirror of the domain-side resolution identity —
// together they prove no request is lost between a client and a shard.
#pragma once

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "batcher/external.hpp"
#include "support/backoff.hpp"
#include "sim/scenario.hpp"
#include "support/rng.hpp"
#include "trace/histogram.hpp"

namespace batcher::service {

// How one request ended.  Mirrors the domain-side counters: kOk/kFailed
// resolve through the batch (or the owner's revoke on close/quarantine),
// kTimedOut is a deadline revocation, kShed never published (after retries,
// if any).
enum class Outcome : std::uint8_t { kOk, kFailed, kTimedOut, kShed };

struct SloResult {
  Outcome outcome = Outcome::kOk;
  unsigned retries = 0;  // DomainOverloaded rejections retried
};

// Deadline-bounded submit with jittered retry on shed: the client-side
// discipline a front-end request handler runs.  Retries only
// DomainOverloaded (side-effect-free by contract), gives up when the retry
// budget or the deadline is exhausted (kShed — the request never reached a
// slot), and classifies every other termination: claimed-and-applied (kOk),
// deadline revocation (kTimedOut), closed/quarantined domain or a failed
// batch (kFailed).  Never throws.
inline SloResult submit_slo(ExternalDomain& domain, std::size_t tid,
                            OpRecordBase& op,
                            std::chrono::steady_clock::time_point deadline,
                            const RetryPolicy& policy, Xoshiro256& rng) {
  SloResult r;
  for (unsigned attempt = 0;; ++attempt) {
    try {
      domain.submit_until(tid, op, deadline);
      r.outcome = Outcome::kOk;
      return r;
    } catch (const DomainOverloaded&) {
      if (attempt >= policy.max_retries ||
          std::chrono::steady_clock::now() >= deadline) {
        r.outcome = Outcome::kShed;
        return r;
      }
      ++r.retries;
      policy.backoff(attempt, rng);
    } catch (const OpTimedOut&) {
      r.outcome = Outcome::kTimedOut;
      return r;
    } catch (...) {
      // DomainClosed / DomainQuarantined, or the batch's own error
      // rethrown through the record: the request resolved, unsuccessfully.
      r.outcome = Outcome::kFailed;
      return r;
    }
  }
}

struct LoadGenConfig {
  sim::Shape shape = sim::Shape::Uniform;
  std::int64_t requests = 1024;
  std::uint64_t seed = 1;
  unsigned clients = 4;        // client threads; tids [0, clients)
  double rate = 100e3;         // offered requests/second (in-burst for crowds)
  std::chrono::nanoseconds deadline{std::chrono::milliseconds(20)};
  RetryPolicy retry;           // shed-retry discipline per request
  std::int64_t key_space = 512;
};

struct LoadGenStats {
  trace::LatencyHistogram latency;  // intended-arrival -> resolve, ns
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  std::uint64_t timed_out = 0;
  std::uint64_t shed = 0;
  std::uint64_t retries = 0;
  double wall_seconds = 0.0;

  std::uint64_t requests() const { return ok + failed + timed_out + shed; }

  void merge(const LoadGenStats& other) {
    latency.merge(other.latency);
    ok += other.ok;
    failed += other.failed;
    timed_out += other.timed_out;
    shed += other.shed;
    retries += other.retries;
  }
};

// Replay the seeded arrival schedule against a request handler.
//
//   SloResult fn(unsigned client, const sim::OpDesc& op,
//                std::chrono::steady_clock::time_point deadline,
//                Xoshiro256& rng);
//
// `fn` routes the op to a shard and submits it (typically via submit_slo);
// it runs on client thread `client` and must use that value as the
// submitting tid.  Returns the merged per-client stats; by construction
// stats.requests() == the number of schedule entries replayed.
template <typename RequestFn>
LoadGenStats run_open_loop(const LoadGenConfig& cfg, RequestFn&& fn) {
  using Clock = std::chrono::steady_clock;

  sim::ScenarioConfig scfg =
      sim::make_scenario_config(cfg.shape, cfg.requests, cfg.seed);
  scfg.key_space = cfg.key_space;
  const sim::ScenarioGen gen(scfg);
  const std::vector<sim::Arrival> schedule = gen.arrival_schedule();
  // One request per leaf; shapes with ds_per_leaf > 1 (TrappedHeavy) fold
  // each leaf's sequential run into one request keyed by its first op.
  const std::int64_t n = gen.leaves();
  const std::int64_t ds_per_leaf = scfg.ds_per_leaf;

  const double ns_per_req = cfg.rate > 0.0 ? 1e9 / cfg.rate : 0.0;
  const double jitter_unit = ns_per_req / 4.0;
  const double wave_period =
      static_cast<double>(scfg.burst) * ns_per_req +
      static_cast<double>(gen.arrivals().quiet_between()) * jitter_unit;
  const bool one_wave = gen.arrivals().waves() == 1;

  std::vector<std::int64_t> offsets_ns(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const sim::Arrival a = schedule[static_cast<std::size_t>(i)];
    const double base =
        one_wave ? static_cast<double>(i) * ns_per_req
                 : static_cast<double>(a.wave) * wave_period;
    offsets_ns[static_cast<std::size_t>(i)] = static_cast<std::int64_t>(
        base + static_cast<double>(a.jitter) * jitter_unit);
  }

  const unsigned clients = cfg.clients != 0 ? cfg.clients : 1;
  std::vector<LoadGenStats> per_client(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  // Small lead so every client is parked on its first wait when the clock
  // starts — thread spawn latency must not skew the head of the schedule.
  const Clock::time_point start =
      Clock::now() + std::chrono::milliseconds(2);

  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoadGenStats& stats = per_client[c];
      Xoshiro256 rng(cfg.seed ^ SplitMix64(c + 1).next());
      for (std::int64_t i = c; i < n; i += clients) {
        const Clock::time_point intended =
            start +
            std::chrono::nanoseconds(offsets_ns[static_cast<std::size_t>(i)]);
        // Coarse sleep, fine spin: sleep granularity must not become
        // arrival jitter.
        while (Clock::now() < intended) {
          const auto remaining = intended - Clock::now();
          if (remaining > std::chrono::microseconds(200)) {
            std::this_thread::sleep_until(
                intended - std::chrono::microseconds(100));
          } else {
            cpu_relax();
          }
        }
        const Clock::time_point deadline = intended + cfg.deadline;
        const sim::OpDesc& op =
            gen.tape()[static_cast<std::size_t>(i * ds_per_leaf)];
        const SloResult r = fn(c, op, deadline, rng);
        const auto resolved = Clock::now();
        stats.latency.add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(resolved -
                                                                 intended)
                .count()));
        stats.retries += r.retries;
        switch (r.outcome) {
          case Outcome::kOk: ++stats.ok; break;
          case Outcome::kFailed: ++stats.failed; break;
          case Outcome::kTimedOut: ++stats.timed_out; break;
          case Outcome::kShed: ++stats.shed; break;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  LoadGenStats total;
  for (const LoadGenStats& s : per_client) total.merge(s);
  total.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return total;
}

}  // namespace batcher::service
