// ShardRouter — the batched service front-end's routing layer (DESIGN.md §15).
//
// The paper's §8 sketch (ExternalDomain) bridges ONE structure to pthreaded
// callers.  A service is K structures: several independent keyspaces (a
// hash map, an index, a queue of work), each possibly replicated into shards
// so one hot structure does not serialize the whole front-end.  ShardRouter
// owns one ExternalDomain per shard over one shared scheduler and answers
// two questions:
//
//  * Routing: which shard serves (group, key)?  A SplitMix64 finalizer over
//    the key picks uniformly among the group's shards, so zipfian key skew
//    is spread by hash, not by the raw key's arithmetic locality.  Routing
//    is pure — same (group, key), same shard — so a client retrying after a
//    shed lands on the same backlog it was shed from (the point of the
//    bound), and tests can predict placements exactly.
//
//  * Pump scheduling: K shards must not cost K spinning workers.  serve()
//    spawns `pump_tasks` pump tasks (default: one per shard, capped at the
//    worker count) via rt::parallel_for, and any pump may pump any shard
//    once it wins that shard's busy flag (one exchange), so Invariant 1
//    holds per domain.  At most one pump spins, sweeping every live shard;
//    the others park on the router's PumpGate (batcher/external.hpp) and a
//    submit that finds no spinner wakes one.  The spinner gives up its role
//    for a pump step and takes it back before the Done stores of the step's
//    last batch: with one request in flight the client never enters the
//    kernel, and a request arriving during a long BOP wakes a parked pump
//    instead of waiting behind it.  The last spinner never parks, so an idle
//    service costs one spinning worker, whatever its shard count.  When a
//    closed shard's pump step comes back empty, the pump holding its flag
//    retires it (its remaining submitters revoke their own records);
//    serve() returns when every shard has retired.
//
// Submit-side semantics (deadlines, shedding, retry, quarantine) are
// unchanged from ExternalDomain — the router only picks the domain.  The
// per-shard resolution identity ops_served == ops_succeeded + ops_failed +
// ops_timed_out therefore holds shard by shard, and total_stats() sums it.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "batcher/external.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "support/backoff.hpp"
#include "support/rng.hpp"
#include "trace/bound_ledger.hpp"
#include "trace/trace.hpp"

namespace batcher::service {

// Stateless SplitMix64 finalizer: one next() from a key-seeded stream.
// Decorrelates shard choice from key arithmetic (k and k+1 land anywhere).
inline std::uint64_t mix_key(std::uint64_t key) {
  return SplitMix64(key).next();
}

class ShardRouter {
 public:
  struct Options {
    // Client threads that may submit concurrently; becomes every shard
    // domain's `max_threads` (client tid t uses slot t in every shard).
    std::size_t max_threads = 1;
    // Applied to every shard's ExternalDomain (shed_threshold,
    // stall_probe).  Shedding is therefore a *per-shard* backlog bound.
    ExternalDomain::Options domain;
    // Pump tasks serve() spawns; 0 means min(num_shards, num_workers).
    // Clamped to [1, min(num_shards, num_workers)]: more pumps than shards
    // is waste, and a pump task beyond the worker count would never start
    // until another pump task finishes — which is only at shutdown.  Only
    // one pump spins at a time; the rest are parked until traffic needs them.
    std::size_t pump_tasks = 0;
  };

  ShardRouter(rt::Scheduler& sched, Options options)
      : sched_(sched), options_(std::move(options)) {}

  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  // Register one keyspace served by `shards` (≥1 structure replicas).
  // Returns the group id used for routing.  Not thread-safe; call before
  // serve().  Throws std::invalid_argument (from ExternalDomain) if
  // Options::max_threads is 0; the router is then unchanged.
  std::size_t add_group(const std::vector<BatchedStructure*>& shards) {
    BATCHER_ASSERT(!shards.empty(), "a shard group needs >= 1 structures");
    const std::size_t begin = shards_.size();
    for (BatchedStructure* ds : shards) {
      shards_.push_back(std::make_unique<Shard>(sched_, *ds, options_, gate_));
    }
    groups_.push_back({begin, shards.size()});
    return groups_.size() - 1;
  }

  std::size_t num_shards() const { return shards_.size(); }
  std::size_t num_groups() const { return groups_.size(); }
  std::size_t group_begin(std::size_t group) const {
    return groups_[group].begin;
  }
  std::size_t group_size(std::size_t group) const {
    return groups_[group].count;
  }

  // Pure routing: the global shard index serving (group, key).
  std::size_t shard_of(std::size_t group, std::int64_t key) const {
    const Group& g = groups_[group];
    return g.begin +
           static_cast<std::size_t>(mix_key(static_cast<std::uint64_t>(key)) %
                                    g.count);
  }

  ExternalDomain& domain(std::size_t shard) { return shards_[shard]->domain; }
  const ExternalDomain& domain(std::size_t shard) const {
    return shards_[shard]->domain;
  }
  ExternalDomain& domain_for(std::size_t group, std::int64_t key) {
    return domain(shard_of(group, key));
  }

  // Routed submits: ExternalDomain's submit family, with the domain chosen
  // by (group, key).  All of that layer's error contracts apply unchanged.
  void submit(std::size_t group, std::int64_t key, std::size_t tid,
              OpRecordBase& op) {
    domain_for(group, key).submit(tid, op);
  }
  void submit_until(std::size_t group, std::int64_t key, std::size_t tid,
                    OpRecordBase& op,
                    std::chrono::steady_clock::time_point deadline) {
    domain_for(group, key).submit_until(tid, op, deadline);
  }
  void submit_with_retry(std::size_t group, std::int64_t key, std::size_t tid,
                         OpRecordBase& op, const RetryPolicy& policy) {
    domain_for(group, key).submit_with_retry(tid, op, policy);
  }

  // The multi-shard pump.  Run inside Scheduler::run (as the root task);
  // returns once every shard is shut down and retired.
  void serve() {
    const std::size_t shards = shards_.size();
    BATCHER_ASSERT(shards != 0, "serve() with no shards");
    std::size_t pumps = options_.pump_tasks != 0
                            ? options_.pump_tasks
                            : std::min<std::size_t>(shards,
                                                    sched_.num_workers());
    pumps = std::min({pumps, shards,
                      static_cast<std::size_t>(sched_.num_workers())});
    if (pumps == 0) pumps = 1;
    live_.store(shards, std::memory_order_relaxed);
    // grain 1: each pump task is one long-lived index; idle workers steal
    // the rest of the range while task 0 is already pumping.
    rt::parallel_for(
        std::int64_t{0}, static_cast<std::int64_t>(pumps),
        [&](std::int64_t) { pump_loop(); }, /*grain=*/1);
  }

  // Close every shard: blocked submits fail with DomainClosed, the pumps
  // retire every shard and serve() returns.  Safe from any thread;
  // idempotent.
  void shutdown() {
    for (auto& s : shards_) s->domain.shutdown();
  }

  // Escalation for one wedged shard (see ExternalDomain::quarantine): the
  // other shards keep serving — the blast radius of a wedged structure is
  // its keyspace slice, not the whole front-end.
  void quarantine(std::size_t shard, bool fail_claimed = false) {
    shards_[shard]->domain.quarantine(fail_claimed);
  }

  ExternalStats stats(std::size_t shard) const {
    return shards_[shard]->domain.stats();
  }

  // Times a pump went to sleep on the parking gate, and times a sleeping
  // pump woke.  Their difference is the number of pumps asleep right now.
  std::uint64_t pump_parks() const {
    return pump_parks_.load(std::memory_order_relaxed);
  }
  std::uint64_t pump_wakes() const {
    return pump_wakes_.load(std::memory_order_relaxed);
  }

  // Sum of the per-shard snapshots; the resolution identity survives the sum.
  ExternalStats total_stats() const {
    ExternalStats total;
    for (const auto& shard : shards_) {
      const ExternalStats s = shard->domain.stats();
      total.ops_served += s.ops_served;
      total.ops_succeeded += s.ops_succeeded;
      total.ops_failed += s.ops_failed;
      total.ops_timed_out += s.ops_timed_out;
      total.ops_shed += s.ops_shed;
      total.batches_served += s.batches_served;
      total.batches_failed += s.batches_failed;
      total.retries_attempted += s.retries_attempted;
    }
    return total;
  }

 private:
  struct Group {
    std::size_t begin = 0;  // first shard index
    std::size_t count = 0;  // shards in this group
  };

  struct Shard {
    Shard(rt::Scheduler& sched, BatchedStructure& ds, const Options& options,
          PumpGate& gate)
        : domain(sched, ds, options.max_threads, options.domain, &gate) {}

    ExternalDomain domain;
    std::atomic<bool> busy{false};     // held by the one pump pumping it
    std::atomic<bool> retired{false};  // empty after close; skip forever
  };

  // Empty sweeps before a pump that is not the spinner parks, and before
  // the spinner starts yielding its core between sweeps.  Not an option:
  // the spinner never parks, because a vCPU wake-up costs milliseconds at
  // the tail, so only how long the others linger is at stake.
  static constexpr unsigned kIdleSweeps = 64;

  bool take_role() {
    std::uint32_t expected = 0;
    return gate_.spinning.load(std::memory_order_relaxed) == 0 &&
           gate_.spinning.compare_exchange_strong(expected, 1);
  }

  void pump_loop() {
    bool spinner = false;
    unsigned idle = 0;
    while (live_.load(std::memory_order_acquire) != 0) {
      if (!spinner) spinner = take_role();
      if (sweep(spinner)) {
        idle = 0;
      } else if (++idle < kIdleSweeps) {
        cpu_relax();
      } else if (spinner) {
        std::this_thread::yield();  // the last spinner never parks
      } else {
        park();
        idle = 0;
      }
    }
    if (spinner) gate_.spinning.store(0);
  }

  // One pass over the live shards.  True when a batch ran or a shard retired.
  bool sweep(bool& spinner) {
    bool progress = false;
    for (auto& shard : shards_) {
      Shard& s = *shard;
      if (s.retired.load(std::memory_order_acquire) || !s.domain.wants_pump()) {
        continue;
      }
      if (s.busy.exchange(true, std::memory_order_acquire)) continue;
      if (!s.retired.load(std::memory_order_relaxed)) {
        progress |= pump_shard(s, spinner);
      }
      s.busy.store(false, std::memory_order_release);
    }
    return progress;
  }

  // Called with `s.busy` held.
  bool pump_shard(Shard& s, bool& spinner) {
    // Hand the spinning role over for the step, so a submit landing during
    // a long BOP wakes a parked pump; take it back before the Done stores of
    // the step's last batch, so the client's next publish finds a spinner
    // and skips the wake.
    if (spinner) {
      gate_.spinning.store(0);
      spinner = false;
    }
    auto after_bop = [&](bool more) { if (!more) spinner = take_role(); };
    if (s.domain.pump_once(after_bop)) return true;
    spinner = take_role();
    if (!s.domain.closed()) return false;
    s.retired.store(true, std::memory_order_release);
    if (live_.fetch_sub(1, std::memory_order_acq_rel) == 1) gate_.wake_all();
    return true;
  }

  // True when some live shard has a record to serve or a close to retire.
  bool any_work() const {
    if (live_.load(std::memory_order_acquire) == 0) return true;
    for (const auto& shard : shards_) {
      if (!shard->retired.load(std::memory_order_acquire) &&
          shard->domain.wants_pump()) {
        return true;
      }
    }
    return false;
  }

  // Sleep on the gate until a submit, shutdown, quarantine or the last
  // retirement bumps its epoch.  The epoch is read before registering, and
  // the re-scan follows parked++ and a fence: see PumpGate.
  void park() {
    const std::uint32_t epoch = gate_.epoch.load(std::memory_order_acquire);
    gate_.parked.fetch_add(1);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (any_work()) {
      gate_.parked.fetch_sub(1);
      return;
    }
    const unsigned worker = rt::Worker::current()->id();
    rt::hooks::emit({rt::hooks::EventId::kPumpParkBegin, worker,
                     rt::TaskKind::Core, rt::TaskKind::Core, this});
    // A parked pump is not working: its interval goes to the parked bucket
    // and its strand stops accruing T1 until it wakes.
    const bool traced = trace::enabled();
    if (traced) [[unlikely]] trace::ledger::strand_pause();
    pump_parks_.fetch_add(1, std::memory_order_relaxed);
    gate_.epoch.wait(epoch, std::memory_order_acquire);
    pump_wakes_.fetch_add(1, std::memory_order_relaxed);
    gate_.parked.fetch_sub(1);
    if (traced) [[unlikely]] {
      trace::ledger::strand_resume({});
      rt::hooks::emit({rt::hooks::EventId::kPumpParkEnd, worker});
    }
  }

  rt::Scheduler& sched_;
  Options options_;
  PumpGate gate_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Group> groups_;
  std::atomic<std::size_t> live_{0};  // shards not yet retired
  std::atomic<std::uint64_t> pump_parks_{0};
  std::atomic<std::uint64_t> pump_wakes_{0};
};

}  // namespace batcher::service
