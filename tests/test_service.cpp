// Service front-end tests: ShardRouter routing/pumping and the open-loop
// load generator (DESIGN.md §15).
//
// Registered under the "service/" ctest prefix.  The suite pins the three
// contracts the bench relies on: routing is pure and in-bounds, serve()
// keeps every shard live with fewer pump tasks than shards, and the
// client-side ledger ok + failed + timed_out + shed == requests mirrors the
// per-shard resolution identity so no request is lost between the two.
// The ServicePark tests pin the pump parking gate: no lost wakeup (a
// hook-forced publish inside the park window, and a perturbed 500-seed
// sweep), an idle router costs about one core, and shutdown and quarantine
// reach parked pumps.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "audit/schedule_perturber.hpp"
#include "ds/batched_counter.hpp"
#include "ds/batched_hashmap.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "service/load_gen.hpp"
#include "service/shard_router.hpp"
#include "support/backoff.hpp"

namespace batcher {
namespace {

using service::LoadGenConfig;
using service::LoadGenStats;
using service::Outcome;
using service::ShardRouter;
using service::SloResult;

// --- routing ---------------------------------------------------------------

TEST(ServiceRouter, RoutingIsPureInBoundsAndCoversShards) {
  rt::Scheduler sched(1);
  std::vector<std::unique_ptr<ds::BatchedCounter>> counters;
  std::vector<BatchedStructure*> shards;
  for (int i = 0; i < 4; ++i) {
    counters.push_back(std::make_unique<ds::BatchedCounter>(sched));
    shards.push_back(counters.back().get());
  }
  ShardRouter::Options opt;
  opt.max_threads = 1;
  ShardRouter router(sched, opt);
  const std::size_t g0 = router.add_group({shards[0], shards[1], shards[2]});
  const std::size_t g1 = router.add_group({shards[3]});

  ASSERT_EQ(router.num_groups(), 2u);
  ASSERT_EQ(router.num_shards(), 4u);
  EXPECT_EQ(router.group_begin(g0), 0u);
  EXPECT_EQ(router.group_size(g0), 3u);
  EXPECT_EQ(router.group_begin(g1), 3u);
  EXPECT_EQ(router.group_size(g1), 1u);

  std::set<std::size_t> seen;
  for (std::int64_t key = 0; key < 512; ++key) {
    const std::size_t shard = router.shard_of(g0, key);
    EXPECT_GE(shard, router.group_begin(g0));
    EXPECT_LT(shard, router.group_begin(g0) + router.group_size(g0));
    // Pure: the same (group, key) maps to the same shard every time, so a
    // retry after a shed lands on the backlog it was shed from.
    EXPECT_EQ(router.shard_of(g0, key), shard);
    seen.insert(shard);
    // A single-shard group routes everything to its one shard.
    EXPECT_EQ(router.shard_of(g1, key), 3u);
  }
  // SplitMix64 over 512 keys must not strand a 3-shard group's shard.
  EXPECT_EQ(seen.size(), 3u);

  // Adjacent raw keys decorrelate: the hash, not key arithmetic, picks the
  // shard, so at least two of keys {0,1,2} land on distinct shards.
  std::set<std::size_t> adjacent{router.shard_of(g0, 0), router.shard_of(g0, 1),
                                 router.shard_of(g0, 2)};
  EXPECT_GT(adjacent.size(), 1u);
}

// --- multi-shard pump ------------------------------------------------------

TEST(ServiceRouter, OnePumpTaskKeepsFourShardsLive) {
  constexpr std::size_t kClients = 4;
  constexpr std::int64_t kPerClient = 64;
  rt::Scheduler sched(2);
  std::vector<std::unique_ptr<ds::BatchedCounter>> counters;
  std::vector<BatchedStructure*> shards;
  for (int i = 0; i < 4; ++i) {
    counters.push_back(std::make_unique<ds::BatchedCounter>(sched));
    shards.push_back(counters.back().get());
  }
  ShardRouter::Options opt;
  opt.max_threads = kClients;
  opt.pump_tasks = 1;  // fewer pumps than shards: one task round-robins all 4
  ShardRouter router(sched, opt);
  const std::size_t group = router.add_group(shards);

  std::vector<std::thread> clients;
  for (std::size_t t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      for (std::int64_t i = 0; i < kPerClient; ++i) {
        ds::BatchedCounter::Op op;
        op.delta = 1;
        router.submit(group, static_cast<std::int64_t>(t) * kPerClient + i, t,
                      op);
        EXPECT_GE(op.result, 1);
      }
    });
  }
  std::thread controller([&] {
    for (auto& c : clients) c.join();
    router.shutdown();
  });
  sched.run([&] { router.serve(); });
  controller.join();

  const ExternalStats total = router.total_stats();
  EXPECT_EQ(total.ops_succeeded, kClients * kPerClient);
  EXPECT_EQ(total.ops_served,
            total.ops_succeeded + total.ops_failed + total.ops_timed_out);
  std::int64_t sum = 0;
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    const ExternalStats st = router.stats(s);
    // Per-shard resolution identity — the router only picks the domain.
    EXPECT_EQ(st.ops_served,
              st.ops_succeeded + st.ops_failed + st.ops_timed_out)
        << "shard " << s;
    // 256 hashed keys over 4 shards: every shard must have seen traffic.
    EXPECT_GT(st.ops_served, 0u) << "shard " << s;
    sum += counters[s]->value_unsafe();
  }
  EXPECT_EQ(sum, static_cast<std::int64_t>(kClients * kPerClient));
}

TEST(ServiceRouter, ServeDrainsMultipleGroupsBothShutdownOrders) {
  // Two groups of different shard counts drain cleanly whether shutdown
  // happens before serve() starts scanning or strictly after traffic.
  for (const bool shutdown_first : {true, false}) {
    rt::Scheduler sched(2);
    std::vector<std::unique_ptr<ds::BatchedCounter>> counters;
    for (int i = 0; i < 3; ++i) {
      counters.push_back(std::make_unique<ds::BatchedCounter>(sched));
    }
    ShardRouter::Options opt;
    opt.max_threads = 2;
    ShardRouter router(sched, opt);
    const std::size_t g0 =
        router.add_group({counters[0].get(), counters[1].get()});
    const std::size_t g1 = router.add_group({counters[2].get()});

    std::thread driver;
    if (shutdown_first) {
      router.shutdown();
    } else {
      driver = std::thread([&] {
        ds::BatchedCounter::Op a, b;
        a.delta = 1;
        b.delta = 5;
        router.submit(g0, 17, 0, a);
        router.submit(g1, 17, 1, b);
        EXPECT_EQ(a.result, 1);
        EXPECT_EQ(b.result, 5);
        router.shutdown();
      });
    }
    sched.run([&] { router.serve(); });
    if (driver.joinable()) driver.join();
    if (!shutdown_first) {
      EXPECT_EQ(router.total_stats().ops_succeeded, 2u);
      EXPECT_EQ(counters[2]->value_unsafe(), 5);
    }
    for (std::size_t s = 0; s < router.num_shards(); ++s) {
      EXPECT_TRUE(router.domain(s).closed());
    }
  }
}

// --- submit_slo classification ---------------------------------------------

TEST(ServiceSlo, ClassifiesTimeoutShedAndFailure) {
  rt::Scheduler sched(2);
  ds::BatchedCounter counter(sched);
  ExternalDomain::Options dopt;
  dopt.shed_threshold = 1;
  ExternalDomain domain(sched, counter, 3, dopt);
  Xoshiro256 rng(99);
  RetryPolicy policy;
  policy.max_retries = 2;
  policy.base_spins = 8;

  // No pump claims it: the deadline revokes the published op -> kTimedOut.
  {
    ds::BatchedCounter::Op op;
    op.delta = 1;
    const SloResult r = service::submit_slo(
        domain, 0, op,
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2),
        policy, rng);
    EXPECT_EQ(r.outcome, Outcome::kTimedOut);
    EXPECT_EQ(domain.stats().ops_timed_out, 1u);
  }

  // Backlog pinned at the threshold: every attempt sheds, the retry budget
  // runs out -> kShed with policy.max_retries retries recorded.
  std::thread blocker([&] {
    ds::BatchedCounter::Op op;
    op.delta = 1;
    EXPECT_THROW(domain.submit(0, op), DomainClosed);
  });
  while (domain.pending_depth() < 1) std::this_thread::yield();
  {
    ds::BatchedCounter::Op op;
    op.delta = 1;
    const SloResult r = service::submit_slo(
        domain, 1, op,
        std::chrono::steady_clock::now() + std::chrono::seconds(5), policy,
        rng);
    EXPECT_EQ(r.outcome, Outcome::kShed);
    EXPECT_EQ(r.retries, policy.max_retries);
  }

  // Closed domain -> kFailed (the request resolved, unsuccessfully).
  domain.shutdown();
  blocker.join();
  {
    ds::BatchedCounter::Op op;
    op.delta = 1;
    const SloResult r = service::submit_slo(
        domain, 2, op,
        std::chrono::steady_clock::now() + std::chrono::seconds(1), policy,
        rng);
    EXPECT_EQ(r.outcome, Outcome::kFailed);
  }
  const ExternalStats st = domain.stats();
  EXPECT_EQ(st.ops_served,
            st.ops_succeeded + st.ops_failed + st.ops_timed_out);
}

// --- open-loop generator ---------------------------------------------------

TEST(ServiceLoadGen, LedgerConservesEveryRequestAcrossShapes) {
  for (const sim::Shape shape :
       {sim::Shape::Uniform, sim::Shape::Zipfian, sim::Shape::FlashCrowd}) {
    LoadGenConfig cfg;
    cfg.shape = shape;
    cfg.requests = 256;
    cfg.seed = 42;
    cfg.clients = 3;
    cfg.rate = 2e6;  // fast replay: this test checks the ledger, not pacing
    std::atomic<std::uint64_t> calls{0};
    const LoadGenStats stats = service::run_open_loop(
        cfg, [&](unsigned client, const sim::OpDesc& op,
                 std::chrono::steady_clock::time_point /*deadline*/,
                 Xoshiro256& /*rng*/) {
          EXPECT_LT(client, cfg.clients);
          EXPECT_GE(op.key, 0);
          EXPECT_LT(op.key, cfg.key_space);
          const std::uint64_t i = calls.fetch_add(1);
          SloResult r;
          // Deterministic outcome mix: every class must be counted once
          // per four calls, whatever thread interleaving happened.
          switch (i % 4) {
            case 0: r.outcome = Outcome::kOk; break;
            case 1: r.outcome = Outcome::kFailed; break;
            case 2: r.outcome = Outcome::kTimedOut; break;
            default: r.outcome = Outcome::kShed; r.retries = 2; break;
          }
          return r;
        });
    EXPECT_EQ(calls.load(), 256u);
    EXPECT_EQ(stats.requests(), 256u);
    EXPECT_EQ(stats.ok, 64u);
    EXPECT_EQ(stats.failed, 64u);
    EXPECT_EQ(stats.timed_out, 64u);
    EXPECT_EQ(stats.shed, 64u);
    EXPECT_EQ(stats.retries, 128u);
    // Every request records a latency sample, even unsuccessful ones.
    EXPECT_EQ(stats.latency.count(), 256u);
    EXPECT_GT(stats.wall_seconds, 0.0);
  }
}

// --- end to end ------------------------------------------------------------

TEST(ServiceEndToEnd, OpenLoopAgainstShardedRouterLosesNothing) {
  constexpr unsigned kClients = 3;
  constexpr std::int64_t kRequests = 300;
  rt::Scheduler sched(2);
  std::vector<std::unique_ptr<ds::BatchedHashMap>> maps;
  std::vector<BatchedStructure*> shards;
  for (int i = 0; i < 2; ++i) {
    maps.push_back(std::make_unique<ds::BatchedHashMap>(sched));
    shards.push_back(maps.back().get());
  }
  ShardRouter::Options opt;
  opt.max_threads = kClients;
  // Depth can never exceed kClients in-flight submits, so nothing sheds:
  // the ledger should be all-ok and exactly mirror the domain counters.
  opt.domain.shed_threshold = kClients;
  ShardRouter router(sched, opt);
  const std::size_t group = router.add_group(shards);

  LoadGenConfig cfg;
  cfg.shape = sim::Shape::Zipfian;
  cfg.requests = kRequests;
  cfg.seed = 7;
  cfg.clients = kClients;
  cfg.rate = 200e3;
  cfg.deadline = std::chrono::seconds(10);  // generous: no timeouts wanted

  LoadGenStats stats;
  std::thread driver([&] {
    stats = service::run_open_loop(
        cfg, [&](unsigned client, const sim::OpDesc& op,
                 std::chrono::steady_clock::time_point deadline,
                 Xoshiro256& rng) {
          ds::BatchedHashMap::Op rec;
          rec.kind = op.update ? ds::BatchedHashMap::Kind::Update
                               : ds::BatchedHashMap::Kind::Get;
          rec.key = op.key;
          rec.value = 1;
          return service::submit_slo(router.domain_for(group, op.key), client,
                                     rec, deadline, cfg.retry, rng);
        });
    router.shutdown();
  });
  sched.run([&] { router.serve(); });
  driver.join();

  // Client-side ledger: nothing lost, nothing shed, nothing timed out.
  EXPECT_EQ(stats.requests(), static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.ok, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.timed_out, 0u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.latency.count(), static_cast<std::uint64_t>(kRequests));
  EXPECT_GT(stats.latency.percentile_ns(0.5), 0u);

  // Domain-side mirror: the shards together served exactly the ledger.
  const ExternalStats total = router.total_stats();
  EXPECT_EQ(total.ops_succeeded, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(total.ops_served,
            total.ops_succeeded + total.ops_failed + total.ops_timed_out);
  for (std::size_t s = 0; s < router.num_shards(); ++s) {
    const ExternalStats st = router.stats(s);
    EXPECT_EQ(st.ops_served,
              st.ops_succeeded + st.ops_failed + st.ops_timed_out)
        << "shard " << s;
    EXPECT_GT(st.ops_served, 0u) << "shard " << s;
  }
}

// --- pump parking ----------------------------------------------------------

using Clock = std::chrono::steady_clock;

// `shards` counter shards in one group on a `workers`-worker scheduler; the
// router serves them with min(shards, workers) pump tasks.
struct CounterService {
  CounterService(unsigned workers, std::size_t shards, std::size_t clients)
      : sched(workers) {
    std::vector<BatchedStructure*> ptrs;
    for (std::size_t i = 0; i < shards; ++i) {
      counters.push_back(std::make_unique<ds::BatchedCounter>(sched));
      ptrs.push_back(counters.back().get());
    }
    ShardRouter::Options opt;
    opt.max_threads = clients;
    router = std::make_unique<ShardRouter>(sched, opt);
    group = router->add_group(ptrs);
  }

  std::uint64_t asleep() const {
    return router->pump_parks() - router->pump_wakes();
  }

  // Polls until `n` pumps sleep on the gate; false after 10 s.
  bool wait_asleep(std::uint64_t n) const {
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (asleep() != n) {
      if (Clock::now() > give_up) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
  }

  rt::Scheduler sched;
  std::vector<std::unique_ptr<ds::BatchedCounter>> counters;
  std::unique_ptr<ShardRouter> router;
  std::size_t group = 0;
};

std::int64_t cpu_ns(int who) {
  rusage ru{};
  getrusage(who, &ru);
  const std::int64_t us =
      static_cast<std::int64_t>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
          1'000'000 +
      static_cast<std::int64_t>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  return us * 1000;
}

// A structure whose BOP blocks until released: holds the spinner inside a
// batch, with the spinning role handed over, for as long as a test needs.
struct BlockingStructure final : BatchedStructure {
  struct Op : OpRecordBase {};
  std::atomic<bool> entered{false};
  std::atomic<bool> release{false};
  void run_batch(OpRecordBase* const*, std::size_t) override {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
  }
};

// Holds the first pump to reach kPumpParkBegin on `target` — registered as
// parked, re-scan done, not yet asleep — until `release`.
struct ParkWindowHold final : rt::hooks::ScheduleObserver {
  std::atomic<const void*> target{nullptr};
  std::atomic<bool> armed{true};
  std::atomic<bool> held{false};
  std::atomic<bool> release{false};
  void on_event(const rt::hooks::Event& e) override {
    if (e.id != rt::hooks::EventId::kPumpParkBegin ||
        e.domain != target.load() || !armed.exchange(false)) {
      return;
    }
    held.store(true);
    while (!release.load()) cpu_relax();
  }
};

TEST(ServicePark, PublishInsideParkWindowWakesThePump) {
  // The lost-wakeup window: a pump has done parked++ and its re-scan came
  // back empty, but it has not called wait yet.  The spinner is inside a
  // blocked BOP, so the spinning role is free.  A client publishes into
  // that window.  Its after-publish check must see the parked pump and bump
  // the epoch, so the pump's wait returns at once and serves the request
  // while the BOP is still blocked.  If the wake were lost, the request
  // would only be served after the blocked BOP, which is released after the
  // request resolves: it would time out.
  if (!rt::hooks::kEnabled) {
    GTEST_SKIP() << "BATCHER_AUDIT hooks not compiled into this build";
  }
  rt::Scheduler sched(2);
  BlockingStructure blocking;
  ds::BatchedCounter counter(sched);
  ShardRouter::Options opt;
  opt.max_threads = 2;
  ShardRouter router(sched, opt);
  const std::size_t g_block = router.add_group({&blocking});
  const std::size_t g_count = router.add_group({&counter});
  ParkWindowHold hold;
  hold.target.store(&router);
  rt::hooks::install_observer(&hold);

  bool served = false;
  std::int64_t served_ns = -1;
  bool bop_still_blocked = false;
  std::thread driver([&] {
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (!hold.held.load() && Clock::now() < give_up) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(hold.held.load()) << "no pump reached the park window";
    std::thread blocked([&] {
      BlockingStructure::Op op;
      router.submit(g_block, 0, 0, op);
    });
    while (!blocking.entered.load() && Clock::now() < give_up) {
      std::this_thread::yield();
    }
    EXPECT_TRUE(blocking.entered.load());
    std::thread client([&] {
      ds::BatchedCounter::Op op;
      op.delta = 1;
      const auto t0 = Clock::now();
      try {
        router.submit_until(g_count, 0, 1, op, t0 + std::chrono::seconds(5));
        served = op.result == 1;
      } catch (const OpTimedOut&) {
      }
      served_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - t0)
                      .count();
      bop_still_blocked = !blocking.release.load();
    });
    // Let the publish and its after-publish check land while the pump is
    // held, then let the pump go on to its wait.
    while (router.domain(router.group_begin(g_count)).pending_depth() == 0) {
      std::this_thread::yield();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    hold.release.store(true);
    client.join();
    blocking.release.store(true);
    blocked.join();
    router.shutdown();
  });
  sched.run([&] { router.serve(); });
  driver.join();
  rt::hooks::install_observer(nullptr);

  EXPECT_TRUE(served);
  EXPECT_TRUE(bop_still_blocked) << "served only after the blocked BOP";
  EXPECT_LT(served_ns, std::int64_t{1'000'000'000});
  EXPECT_GE(router.pump_wakes(), 1u);
  EXPECT_EQ(router.pump_parks(), router.pump_wakes());
}

TEST(ServicePark, PerturbedThinkTimeSweep500Seeds) {
  // Four clients with seeded random think times (none, a short spin, or a
  // sleep long enough for the non-spinning pumps to park) keep the pumps
  // parking and waking; in audit builds a seeded perturber also shakes
  // every hook point, the park window included.  Every request must
  // resolve ok, and every park must be matched by a wake once serve()
  // returns.
  constexpr unsigned kWorkers = 4;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kShards = 4;
  constexpr int kOpsPerClient = 8;
  constexpr std::uint64_t kSeeds = 500;
  audit::SchedulePerturber::Options popt;
  popt.record_trace = false;
  audit::SchedulePerturber perturber(kWorkers, 0, popt);
  rt::hooks::install_observer(&perturber);
  std::uint64_t parks = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    perturber.reseed(seed);
    CounterService svc(kWorkers, kShards, kClients);
    ShardRouter& router = *svc.router;
    std::atomic<int> ok{0};
    std::thread driver([&] {
      std::vector<std::thread> clients;
      for (std::size_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          Xoshiro256 rng(seed * 131 + t);
          for (int i = 0; i < kOpsPerClient; ++i) {
            const std::uint64_t think = rng.next_below(4);
            if (think == 1) {
              for (std::uint64_t k = rng.next_below(2000); k > 0; --k) {
                cpu_relax();
              }
            } else if (think >= 2) {
              std::this_thread::sleep_for(
                  std::chrono::microseconds(20 + rng.next_below(200)));
            }
            ds::BatchedCounter::Op op;
            op.delta = 1;
            const auto key = static_cast<std::int64_t>(rng.next());
            try {
              router.submit_until(svc.group, key, t, op,
                                  Clock::now() + std::chrono::seconds(10));
              ok.fetch_add(op.result >= 1 ? 1 : 0);
            } catch (...) {
            }
          }
        });
      }
      for (auto& c : clients) c.join();
      router.shutdown();
    });
    svc.sched.run([&] { router.serve(); });
    driver.join();

    ASSERT_EQ(ok.load(), static_cast<int>(kClients) * kOpsPerClient)
        << "seed " << seed;
    std::int64_t sum = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      const ExternalStats st = router.stats(s);
      ASSERT_EQ(st.ops_served,
                st.ops_succeeded + st.ops_failed + st.ops_timed_out)
          << "seed " << seed << " shard " << s;
      ASSERT_EQ(st.ops_served, st.ops_succeeded) << "seed " << seed;
      sum += svc.counters[s]->value_unsafe();
    }
    ASSERT_EQ(sum, static_cast<std::int64_t>(kClients) * kOpsPerClient)
        << "seed " << seed;
    ASSERT_EQ(router.pump_parks(), router.pump_wakes()) << "seed " << seed;
    parks += router.pump_parks();
  }
  rt::hooks::install_observer(nullptr);
  EXPECT_GT(parks, kSeeds) << "the sweep never exercised parking";
}

TEST(ServicePark, IdleRouterBurnsAboutOneCore) {
  // Eight idle shards on four workers: one pump spins, three sleep.  Four
  // busy-polling pumps would burn about 4 x wall of CPU.
  CounterService svc(4, 8, 1);
  double cpu_over_wall = 0;
  std::thread driver([&] {
    EXPECT_TRUE(svc.wait_asleep(3));
    const std::int64_t self0 = cpu_ns(RUSAGE_SELF);
    const std::int64_t own0 = cpu_ns(RUSAGE_THREAD);
    const auto t0 = Clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::int64_t own1 = cpu_ns(RUSAGE_THREAD);
    const std::int64_t self1 = cpu_ns(RUSAGE_SELF);
    const auto wall =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
            .count();
    cpu_over_wall = static_cast<double>((self1 - self0) - (own1 - own0)) /
                    static_cast<double>(wall);
    svc.router->shutdown();
  });
  svc.sched.run([&] { svc.router->serve(); });
  driver.join();
  EXPECT_LE(cpu_over_wall, 1.5);
}

TEST(ServicePark, ShutdownReachesThreeParkedPumps) {
  CounterService svc(4, 8, 1);
  Clock::time_point shutdown_at;
  std::thread driver([&] {
    EXPECT_TRUE(svc.wait_asleep(3));
    shutdown_at = Clock::now();
    svc.router->shutdown();
  });
  svc.sched.run([&] { svc.router->serve(); });
  const auto returned_at = Clock::now();
  driver.join();
  EXPECT_LT(returned_at - shutdown_at, std::chrono::milliseconds(100));
  EXPECT_EQ(svc.router->pump_parks(), svc.router->pump_wakes());
}

TEST(ServicePark, QuarantineWakesParkedPumpsOthersKeepServing) {
  CounterService svc(4, 8, 1);
  ShardRouter& router = *svc.router;
  std::thread driver([&] {
    EXPECT_TRUE(svc.wait_asleep(3));
    const std::uint64_t wakes0 = router.pump_wakes();
    router.quarantine(0);
    const auto give_up = Clock::now() + std::chrono::seconds(10);
    while (router.pump_wakes() < wakes0 + 3 && Clock::now() < give_up) {
      std::this_thread::yield();
    }
    EXPECT_GE(router.pump_wakes(), wakes0 + 3);
    ds::BatchedCounter::Op op;
    op.delta = 1;
    EXPECT_THROW(router.domain(0).submit(0, op), DomainQuarantined);
    for (std::size_t s = 1; s < router.num_shards(); ++s) {
      ds::BatchedCounter::Op live;
      live.delta = 1;
      router.domain(s).submit(0, live);
      EXPECT_EQ(live.result, 1) << "shard " << s;
    }
    router.shutdown();
  });
  svc.sched.run([&] { router.serve(); });
  driver.join();
  EXPECT_EQ(svc.counters[0]->value_unsafe(), 0);
  for (std::size_t s = 1; s < router.num_shards(); ++s) {
    EXPECT_EQ(router.stats(s).ops_succeeded, 1u) << "shard " << s;
  }
}

}  // namespace
}  // namespace batcher
