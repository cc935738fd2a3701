// Failure-safety tests (DESIGN.md §8): exception propagation through the
// fork/join runtime, batch-protocol recovery after throwing BOPs, bounded
// ExternalDomain shutdown, the StallWatchdog, and a seed-swept
// fault-injection matrix.
//
// Three layers, mirroring test_audit.cpp:
//   1. Real exceptions (no injection) — these run in every build: a throw in
//      a spawned/stolen task surfaces at the spawner after siblings drain; a
//      throwing BOP fails exactly its batch's ops and the domain keeps
//      accepting batches; ExternalDomain::shutdown bounds every blocked
//      submit.
//   2. StallWatchdog driven by synthetic event streams — every build.
//   3. Injected faults (hooks::test_faults(), requires BATCHER_AUDIT): the
//      fault matrix — throw-in-BOP, throw in a core task frame, throw
//      inside collect, a slow launcher — swept under
//      >= 500 perturbed schedules with the auditor and watchdog attached;
//      and three faults fired with a trace session open, where the ring
//      and the observer must stay reconciled.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit_session.hpp"
#include "audit/invariant_auditor.hpp"
#include "audit/stall_watchdog.hpp"
#include "batcher/batcher.hpp"
#include "batcher/external.hpp"
#include "ds/batched_counter.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace batcher {
namespace {

namespace hooks = rt::hooks;
using audit::AuditSession;
using audit::InvariantAuditor;
using audit::SchedulePerturber;
using audit::StallWatchdog;
using hooks::Event;
using hooks::EventId;
using rt::TaskKind;

// --- 1a. Exception propagation through the runtime --------------------------

TEST(RuntimeFailure, SpawnedArmExceptionSurfacesAtSpawner) {
  rt::Scheduler sched(4);
  std::atomic<bool> other_ran{false};
  std::atomic<bool> caught{false};
  sched.run([&] {
    try {
      rt::parallel_invoke(
          [&] { other_ran.store(true, std::memory_order_relaxed); },
          [&] { throw std::runtime_error("spawned arm failed"); });
    } catch (const std::runtime_error& e) {
      caught.store(std::string(e.what()) == "spawned arm failed",
                   std::memory_order_relaxed);
    }
  });
  EXPECT_TRUE(caught.load());
  EXPECT_TRUE(other_ran.load());

  // The scheduler survives the failed run untouched.
  std::atomic<std::int64_t> n{0};
  sched.run([&] {
    rt::parallel_for(0, 32,
                     [&](std::int64_t) { n.fetch_add(1, std::memory_order_relaxed); },
                     /*grain=*/1);
  });
  EXPECT_EQ(n.load(), 32);
}

TEST(RuntimeFailure, FirstExceptionWinsWhenBothArmsThrow) {
  rt::Scheduler sched(4);
  std::atomic<int> caught{0};
  sched.run([&] {
    try {
      rt::parallel_invoke([] { throw std::runtime_error("arm 0"); },
                          [] { throw std::runtime_error("arm 1"); });
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      caught.store(what == "arm 0" ? 1 : what == "arm 1" ? 2 : -1,
                   std::memory_order_relaxed);
    }
  });
  // Exactly one of the two exceptions is claimed and rethrown; the loser is
  // dropped, never std::terminate.
  EXPECT_TRUE(caught.load() == 1 || caught.load() == 2) << caught.load();
}

TEST(RuntimeFailure, ParallelForSiblingsDrainBeforeRethrow) {
  rt::Scheduler sched(4);
  constexpr std::int64_t kN = 64;
  std::atomic<std::int64_t> ran{0};
  std::atomic<bool> caught{false};
  sched.run([&] {
    try {
      rt::parallel_for(0, kN,
                       [&](std::int64_t i) {
                         if (i == 37) throw std::runtime_error("body 37 failed");
                         ran.fetch_add(1, std::memory_order_relaxed);
                       },
                       /*grain=*/1);
    } catch (const std::runtime_error&) {
      caught.store(true, std::memory_order_relaxed);
    }
  });
  EXPECT_TRUE(caught.load());
  // No cancellation: the join waited for every sibling, so all other bodies
  // ran to completion before the exception surfaced.
  EXPECT_EQ(ran.load(), kN - 1);
}

TEST(RuntimeFailure, RootExceptionRethrownFromRun) {
  rt::Scheduler sched(2);
  EXPECT_THROW(sched.run([] { throw std::runtime_error("root failed"); }),
               std::runtime_error);
  // run() stays usable after a failed root.
  std::atomic<int> n{0};
  sched.run([&] { n.store(1, std::memory_order_relaxed); });
  EXPECT_EQ(n.load(), 1);
}

// --- 1b. Batch-protocol recovery after a throwing BOP -----------------------

// A counter whose BOP throws for the first `failures` non-empty batches, then
// behaves.  Works in every build — no fault injection needed.
struct FlakyCounter final : BatchedStructure {
  struct Op : OpRecordBase {
    std::int64_t delta = 0;
    std::int64_t result = 0;
  };

  explicit FlakyCounter(int failures) : failures_left(failures) {}

  std::atomic<int> failures_left;
  std::int64_t value = 0;  // Invariant 1: at most one BOP runs at a time
  // Every failing BOP rethrows this one exception, which lives as long as
  // the counter.  All ops of a failed batch rethrow the same object, and
  // their workers read its what() concurrently.  If the object died with
  // the last worker's reference, that worker would free it after a
  // reference-count decrement inside the uninstrumented libstdc++, and
  // ThreadSanitizer, blind to that ordering, would report the free as a
  // race with another worker's what() (a false positive).
  const std::exception_ptr failure =
      std::make_exception_ptr(std::runtime_error("flaky BOP failed"));

  void run_batch(OpRecordBase* const* ops, std::size_t count) override {
    const int left = failures_left.load(std::memory_order_relaxed);
    if (left > 0) {
      failures_left.store(left - 1, std::memory_order_relaxed);
      std::rethrow_exception(failure);
    }
    for (std::size_t i = 0; i < count; ++i) {
      Op* op = static_cast<Op*>(ops[i]);
      value += op->delta;
      op->result = value;
    }
  }
};

TEST(BatchRecovery, ThrowingBopRecoversAnnounceSetup) {
  constexpr std::int64_t kOps = 64;
  constexpr std::int64_t kProbe = 8;
  constexpr int kFailures = 3;

  rt::Scheduler sched(4);
  FlakyCounter ds(kFailures);
  Batcher batcher(sched, ds);

  std::atomic<std::int64_t> ok{0};
  std::atomic<std::int64_t> failed{0};
  std::atomic<std::int64_t> bad_error_state{0};
  sched.run([&] {
    rt::parallel_for(0, kOps,
                     [&](std::int64_t) {
                       FlakyCounter::Op op;
                       op.delta = 1;
                       try {
                         batcher.batchify(op);
                         if (op.failed()) bad_error_state.fetch_add(1);
                         ok.fetch_add(1, std::memory_order_relaxed);
                       } catch (const std::runtime_error& e) {
                         if (!op.failed() ||
                             std::string(e.what()) != "flaky BOP failed") {
                           bad_error_state.fetch_add(1);
                         }
                         failed.fetch_add(1, std::memory_order_relaxed);
                       }
                     },
                     /*grain=*/1);
    // The domain must accept fresh batches after the failures — no catch
    // here: these have to succeed.
    for (std::int64_t i = 0; i < kProbe; ++i) {
      FlakyCounter::Op op;
      op.delta = 1;
      batcher.batchify(op);
      ok.fetch_add(1, std::memory_order_relaxed);
    }
  });

  EXPECT_EQ(bad_error_state.load(), 0);
  EXPECT_EQ(ok.load() + failed.load(), kOps + kProbe);
  // Each failed batch carried at least one op.
  EXPECT_GE(failed.load(), kFailures);
  // Failed ops were never applied; successful ones all were.
  EXPECT_EQ(ds.value, ok.load());

  const BatcherStats st = batcher.stats();
  EXPECT_EQ(st.failed_batches, static_cast<std::uint64_t>(kFailures));
  EXPECT_EQ(st.ops_failed, static_cast<std::uint64_t>(failed.load()));
  EXPECT_EQ(st.ops_processed, static_cast<std::uint64_t>(kOps + kProbe));
  // The stats identities hold across failures: every op a batch carried is
  // either failed or succeeded...
  EXPECT_EQ(st.ops_processed, st.ops_failed + st.ops_succeeded);
  EXPECT_EQ(st.ops_succeeded, static_cast<std::uint64_t>(ok.load()));
  // ...the mean counts only clean launches, so the failed batches' partial
  // collections cannot skew it...
  EXPECT_EQ(st.clean_nonempty_batches,
            st.batches_launched - st.empty_batches -
                static_cast<std::uint64_t>(kFailures));
  if (st.clean_nonempty_batches > 0) {
    EXPECT_DOUBLE_EQ(st.mean_batch_size(),
                     static_cast<double>(st.ops_succeeded) /
                         static_cast<double>(st.clean_nonempty_batches));
  }
  // ...and the histogram stays consistent with the totals.
  std::uint64_t hist_batches = 0, hist_ops = 0;
  for (std::size_t k = 0; k < st.batch_size_histogram.size(); ++k) {
    hist_batches += st.batch_size_histogram[k];
    hist_ops += k * st.batch_size_histogram[k];
  }
  EXPECT_EQ(hist_batches, st.batches_launched);
  EXPECT_EQ(hist_ops, st.ops_processed);
  EXPECT_EQ(st.batch_size_histogram[0], st.empty_batches);
}

// --- 1c. ExternalDomain failure paths ---------------------------------------

TEST(ExternalFailure, BadThreadIdThrowsOutOfRangeInEveryBuild) {
  rt::Scheduler sched(2);
  ds::BatchedCounter counter(sched);
  ExternalDomain domain(sched, counter, /*max_threads=*/2);
  ds::BatchedCounter::Op op;
  EXPECT_THROW(domain.submit(2, op), std::out_of_range);
  EXPECT_THROW(domain.submit(99, op), std::out_of_range);
}

TEST(ExternalFailure, SubmitAfterShutdownThrowsImmediately) {
  rt::Scheduler sched(2);
  ds::BatchedCounter counter(sched);
  ExternalDomain domain(sched, counter, /*max_threads=*/1);
  domain.shutdown();
  ds::BatchedCounter::Op op;
  op.delta = 1;
  EXPECT_THROW(domain.submit(0, op), DomainClosed);
  EXPECT_EQ(counter.value_unsafe(), 0);
}

TEST(ExternalFailure, ShutdownUnblocksWaitingSubmit) {
  // No pump is ever started: pre-recovery this submit would spin forever.
  rt::Scheduler sched(2);
  ds::BatchedCounter counter(sched);
  ExternalDomain domain(sched, counter, /*max_threads=*/1);

  std::atomic<bool> closed_seen{false};
  std::thread external([&] {
    ds::BatchedCounter::Op op;
    op.delta = 1;
    try {
      domain.submit(0, op);
    } catch (const DomainClosed&) {
      closed_seen.store(true, std::memory_order_relaxed);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  domain.shutdown();
  external.join();
  EXPECT_TRUE(closed_seen.load());
  EXPECT_EQ(counter.value_unsafe(), 0);
}

TEST(ExternalFailure, ShutdownDrainsInFlightOpsWithoutHanging) {
  rt::Scheduler sched(2);
  ds::BatchedCounter counter(sched);
  constexpr std::size_t kThreads = 3;
  ExternalDomain domain(sched, counter, kThreads);

  std::atomic<std::int64_t> ok{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      // Submit until the shutdown surfaces: every blocked submit must either
      // complete (its batch was served) or throw DomainClosed — never hang.
      try {
        for (;;) {
          ds::BatchedCounter::Op op;
          op.delta = 1;
          domain.submit(t, op);
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      } catch (const DomainClosed&) {
      }
    });
  }
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    domain.shutdown();
  });
  sched.run([&] { domain.serve(); });
  stopper.join();
  for (auto& th : pool) th.join();

  // Exactly the successfully returned submits were applied; revoked and
  // drained ops had no effect.
  EXPECT_EQ(counter.value_unsafe(), ok.load());
  EXPECT_GT(ok.load(), 0);
}

TEST(ExternalFailure, ThrowingBopRethrownAtSubmitAndDomainStaysUsable) {
  rt::Scheduler sched(2);
  FlakyCounter flaky(/*failures=*/1);
  ExternalDomain domain(sched, flaky, /*max_threads=*/1);

  std::atomic<bool> first_failed{false};
  std::atomic<std::int64_t> second_result{0};
  std::thread external([&] {
    FlakyCounter::Op op;
    op.delta = 5;
    try {
      domain.submit(0, op);
    } catch (const std::runtime_error& e) {
      first_failed.store(
          op.failed() && std::string(e.what()) == "flaky BOP failed",
          std::memory_order_relaxed);
    }
    FlakyCounter::Op retry;
    retry.delta = 7;
    domain.submit(0, retry);  // the domain kept serving
    second_result.store(retry.result, std::memory_order_relaxed);
    domain.shutdown();
  });
  sched.run([&] { domain.serve(); });
  external.join();

  EXPECT_TRUE(first_failed.load());
  EXPECT_EQ(second_result.load(), 7);
  EXPECT_EQ(flaky.value, 7);
  EXPECT_EQ(domain.batches_failed(), 1u);
  EXPECT_EQ(domain.ops_failed(), 1u);
}

// --- 2. StallWatchdog vs synthetic event streams ----------------------------

Event pop_event(unsigned w) {
  return {EventId::kPop, w, TaskKind::Batch, TaskKind::Core, nullptr, 0};
}

TEST(Watchdog, FlagHeldPastEventBudgetIsFlaggedWithModelDump) {
  InvariantAuditor auditor(4);
  StallWatchdog::Options o;
  o.flag_hold_event_budget = 100;
  o.trap_event_budget = 1ull << 40;
  StallWatchdog wd(4, o, &auditor);
  int dom = 0;
  const Event cas{EventId::kFlagWon, 1, TaskKind::Core,
                      TaskKind::Core, &dom};
  auditor.on_event(cas);
  wd.on_event(cas);
  for (int i = 0; i < 512; ++i) {
    const Event e = pop_event(2);
    auditor.on_event(e);
    wd.on_event(e);
  }
  ASSERT_TRUE(wd.stalled());
  EXPECT_EQ(wd.stall_count(), 1u);  // flagged once per episode, not per scan
  const std::string report = wd.report();
  EXPECT_NE(report.find("LAUNCHBATCH appears stuck"), std::string::npos)
      << report;
  EXPECT_NE(report.find("worker 1"), std::string::npos) << report;
  // The embedded auditor model names the wedged domain's holder.
  EXPECT_NE(report.find("protocol state model"), std::string::npos) << report;
  EXPECT_NE(report.find("flag holder=worker 1"), std::string::npos) << report;
}

TEST(Watchdog, ReopenedFlagIsNotFlagged) {
  StallWatchdog::Options o;
  o.flag_hold_event_budget = 100;
  o.trap_event_budget = 1ull << 40;
  StallWatchdog wd(4, o);
  int dom = 0;
  wd.on_event({EventId::kFlagWon, 1, TaskKind::Core, TaskKind::Core,
               &dom});
  for (int i = 0; i < 50; ++i) wd.on_event(pop_event(2));
  wd.on_event({EventId::kLaunchExit, 1, TaskKind::Batch, TaskKind::Batch,
               &dom, 0});
  for (int i = 0; i < 512; ++i) wd.on_event(pop_event(2));
  EXPECT_FALSE(wd.stalled()) << wd.report();
}

TEST(Watchdog, TrappedWorkerPastEventBudgetIsFlagged) {
  StallWatchdog::Options o;
  o.flag_hold_event_budget = 1ull << 40;
  o.trap_event_budget = 100;
  StallWatchdog wd(4, o);
  int dom = 0;
  wd.on_event({EventId::kOpSubmit, 2, TaskKind::Core, TaskKind::Core,
               &dom});
  for (int i = 0; i < 512; ++i) wd.on_event(pop_event(3));
  ASSERT_TRUE(wd.stalled());
  const std::string report = wd.report();
  EXPECT_NE(report.find("worker 2 trapped"), std::string::npos) << report;
}

TEST(Watchdog, BatchifyExitClearsTrapWatch) {
  StallWatchdog::Options o;
  o.flag_hold_event_budget = 1ull << 40;
  o.trap_event_budget = 100;
  StallWatchdog wd(4, o);
  int dom = 0;
  wd.on_event({EventId::kOpSubmit, 2, TaskKind::Core, TaskKind::Core,
               &dom});
  for (int i = 0; i < 50; ++i) wd.on_event(pop_event(3));
  wd.on_event({EventId::kOpResume, 2, TaskKind::Core, TaskKind::Core,
               &dom});
  for (int i = 0; i < 512; ++i) wd.on_event(pop_event(3));
  EXPECT_FALSE(wd.stalled()) << wd.report();
}

TEST(Watchdog, CheckNowAppliesWallBudgetToSilentStall) {
  // A fully silent deadlock emits no events, so only the wall-clock budget
  // (evaluated via check_now) can catch it.
  StallWatchdog::Options o;
  o.wall_budget_ms = 1;
  StallWatchdog wd(4, o);
  int dom = 0;
  wd.on_event({EventId::kFlagWon, 0, TaskKind::Core, TaskKind::Core,
               &dom});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(wd.stalled());  // no events flowed, no event-driven scan
  wd.check_now();
  ASSERT_TRUE(wd.stalled());
  EXPECT_NE(wd.report().find("wall budget also exceeded"), std::string::npos)
      << wd.report();
}

// --- 3. Injected faults (requires BATCHER_AUDIT) ----------------------------

#define REQUIRE_LIVE_HOOKS()                                              \
  do {                                                                    \
    if (!hooks::kEnabled)                                                 \
      GTEST_SKIP() << "built without BATCHER_AUDIT; no live hook stream"; \
  } while (0)

#if BATCHER_AUDIT

TEST(InjectedFaults, CoreTaskFaultSurfacesAtSpawnerJoin) {
  REQUIRE_LIVE_HOOKS();
  hooks::test_faults().reset();
  hooks::test_faults().throw_in_core_task.store(1, std::memory_order_relaxed);
  rt::Scheduler sched(4);
  std::atomic<std::int64_t> ran{0};
  std::atomic<bool> caught{false};
  sched.run([&] {
    try {
      rt::parallel_for(0, 64,
                       [&](std::int64_t) {
                         ran.fetch_add(1, std::memory_order_relaxed);
                       },
                       /*grain=*/1);
    } catch (const hooks::InjectedFault&) {
      caught.store(true, std::memory_order_relaxed);
    }
    // Disarmed, the runtime schedules normally again.
    hooks::test_faults().reset();
    rt::parallel_for(0, 16,
                     [&](std::int64_t) {
                       ran.fetch_add(1, std::memory_order_relaxed);
                     },
                     /*grain=*/1);
  });
  EXPECT_TRUE(caught.load());
  EXPECT_GE(ran.load(), 16);
  hooks::test_faults().reset();
}

// The collect-fault recovery contract: the claim walk has already unhooked
// the claimed list from the announce stack, so recovery fails the whole
// claimed list — collected slots and the uncollected tail alike.  Every
// caller either gets its result or the injected error, and the counter
// agrees exactly with the calls that returned.
TEST(InjectedFaults, CollectFaultFailsClaimedListAndRecoversAnnounce) {
  REQUIRE_LIVE_HOOKS();
  hooks::test_faults().reset();
  hooks::test_faults().throw_in_collect.store(2, std::memory_order_relaxed);
  rt::Scheduler sched(4);
  ds::BatchedCounter counter(sched);
  std::atomic<std::int64_t> ok{0};
  sched.run([&] {
    rt::parallel_for(0, 64,
                     [&](std::int64_t) {
                       try {
                         counter.increment(1);
                         ok.fetch_add(1, std::memory_order_relaxed);
                       } catch (const hooks::InjectedFault&) {
                       }
                     },
                     /*grain=*/1);
    hooks::test_faults().reset();
    rt::parallel_for(0, 8,
                     [&](std::int64_t) {
                       counter.increment(1);
                       ok.fetch_add(1, std::memory_order_relaxed);
                     },
                     /*grain=*/1);
  });
  EXPECT_EQ(counter.value_unsafe(), ok.load());
  EXPECT_GE(ok.load(), 8);
  const BatcherStats st = counter.batcher().stats();
  EXPECT_EQ(st.ops_processed, st.ops_failed + st.ops_succeeded);
  hooks::test_faults().reset();
}

TEST(InjectedFaults, SlowLauncherTripsStallWatchdog) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 4;
  StallWatchdog::Options wd;
  wd.flag_hold_event_budget = 64;   // far below a multi-ms stall's event flow
  wd.trap_event_budget = 1ull << 40;
  AuditSession session(kWorkers, /*seed=*/11, {}, wd);
  session.install();
  hooks::test_faults().reset();
  hooks::test_faults().slow_launcher_spins.store(2'000'000,
                                                 std::memory_order_relaxed);
  {
    rt::Scheduler sched(kWorkers);
    ds::BatchedCounter counter(sched);
    sched.run([&] {
      rt::parallel_for(0, 32, [&](std::int64_t) { counter.increment(1); },
                       /*grain=*/1);
    });
    ASSERT_EQ(counter.value_unsafe(), 32);
  }
  hooks::test_faults().reset();
  session.uninstall();

  // Slow is not incorrect: the protocol stayed invariant-clean...
  EXPECT_TRUE(session.auditor().clean()) << session.auditor().report();
  // ...but the watchdog flagged the stretched flag-hold, with the model dump.
  ASSERT_TRUE(session.watchdog().stalled()) << session.watchdog().report();
  const std::string report = session.watchdog().report();
  EXPECT_NE(report.find("LAUNCHBATCH appears stuck"), std::string::npos)
      << report;
  EXPECT_NE(report.find("protocol state model"), std::string::npos) << report;
}

// The acceptance sweep: every fault row, >= 500 perturbed schedules, zero
// auditor violations, zero watchdog stalls (default budgets), and after every
// faulted storm the domain accepts a fresh probe batch.
TEST(InjectedFaults, FaultMatrixSweepRecoversAcrossSeeds) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kSeeds = 520;
  constexpr std::int64_t kOps = 48;
  constexpr std::int64_t kProbe = 8;

  SchedulePerturber::Options opts;
  opts.yield_one_in = 96;
  opts.pause_one_in = 8;
  opts.max_pause_spins = 32;
  AuditSession session(kWorkers, 0, opts);
  session.install();

  std::uint64_t faulted_runs = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    session.reseed(seed);
    const int row = static_cast<int>(seed % 5);
    auto& faults = hooks::test_faults();
    faults.reset();
    const std::int64_t armed = 1 + static_cast<std::int64_t>(seed % 3);
    switch (row) {
      case 0:
      case 1:  // rows 0 and 1 both throw in the BOP: two fifths of the seeds
        faults.throw_in_bop.store(armed, std::memory_order_relaxed);
        break;
      case 2:
        faults.throw_in_collect.store(armed, std::memory_order_relaxed);
        break;
      case 3:
        faults.throw_in_core_task.store(1, std::memory_order_relaxed);
        break;
      default:
        faults.slow_launcher_spins.store(4096, std::memory_order_relaxed);
        break;
    }

    std::int64_t succeeded = 0;
    bool outer_fault = false;
    {
      rt::Scheduler sched(kWorkers);
      ds::BatchedCounter counter(sched);
      std::atomic<std::int64_t> ok{0};
      std::atomic<bool> storm_threw{false};
      sched.run([&] {
        try {
          rt::parallel_for(0, kOps,
                           [&](std::int64_t) {
                             try {
                               counter.increment(1);
                               ok.fetch_add(1, std::memory_order_relaxed);
                             } catch (const hooks::InjectedFault&) {
                             }
                           },
                           /*grain=*/1);
        } catch (const hooks::InjectedFault&) {
          storm_threw.store(true, std::memory_order_relaxed);
        }
        // Disarm, then prove the domain still launches fresh batches.
        hooks::test_faults().reset();
        rt::parallel_for(0, kProbe,
                         [&](std::int64_t) {
                           counter.increment(1);
                           ok.fetch_add(1, std::memory_order_relaxed);
                         },
                         /*grain=*/1);
      });
      succeeded = ok.load();
      outer_fault = storm_threw.load();
      // Failed ops were never applied; the counter agrees exactly with the
      // calls that returned.
      ASSERT_EQ(counter.value_unsafe(), succeeded) << "seed " << seed;
      ASSERT_GE(succeeded, kProbe) << "seed " << seed;
      if (row == 3) {
        // The killed task frame's exception must surface at the storm join.
        ASSERT_TRUE(outer_fault) << "seed " << seed;
      }
      if (row == 4) {
        // A slow launcher loses nothing.
        ASSERT_FALSE(outer_fault) << "seed " << seed;
        ASSERT_EQ(succeeded, kOps + kProbe) << "seed " << seed;
      }
    }  // scheduler destroyed: hook stream quiescent

    ASSERT_TRUE(session.auditor().clean())
        << "seed " << seed << " (replay with this seed)\n"
        << session.auditor().report();
    ASSERT_FALSE(session.watchdog().stalled())
        << "seed " << seed << "\n" << session.watchdog().report();
    if (outer_fault || succeeded < kOps + kProbe) ++faulted_runs;
  }
  session.uninstall();
  hooks::test_faults().reset();

  // The matrix actually injected: rows 0, 1, and 3 always lose work.
  EXPECT_GE(faulted_runs, (kSeeds / 5) * 3) << faulted_runs;
}

// --- 3b. Injected faults with a trace session open --------------------------
//
// Two sites feed the observer and the ring differently on purpose: a core
// task the fault kills emits no kTaskBegin at all, and skip_batch_flag_cas
// hides kFlagWon from the observer only.  Each fault, fired with a session
// open and the auditor attached, must leave the ring's pairing whole and the
// ring and the observer agreeing on every other entry both of them watch.

// Counts every event per entry and hands it on to an auditor.
struct AuditedCounts final : hooks::ScheduleObserver {
  explicit AuditedCounts(unsigned workers) : auditor(workers) {}
  void on_event(const Event& e) override {
    seen[static_cast<std::size_t>(e.id)].fetch_add(1,
                                                   std::memory_order_relaxed);
    auditor.on_event(e);
  }
  InvariantAuditor auditor;
  std::array<std::atomic<std::uint64_t>, trace::kNumEvents> seen{};
};

struct TracedFaultRun {
  explicit TracedFaultRun(unsigned workers) : observer(workers) {}
  AuditedCounts observer;
  trace::MetricsReport metrics;
  std::array<std::uint64_t, trace::kNumEvents> kept{};
  bool faulted = false;  // some op, or the storm's join, saw the fault
  std::int64_t value = 0;
  std::int64_t ok = 0;

  std::uint64_t kept_of(EventId id) const {
    return kept[static_cast<std::size_t>(id)];
  }
  std::uint64_t seen_of(EventId id) const {
    return observer.seen[static_cast<std::size_t>(id)].load();
  }
};

// Arms one fault, runs a 64-op counter storm on 4 workers with the session
// open and `out.observer` installed, and drains the trace.
void run_traced_fault(void (*arm)(hooks::TestFaults&), TracedFaultRun& out) {
  hooks::test_faults().reset();
  trace::TraceSession::Options opt;
  opt.ring_capacity = 1u << 16;
  trace::TraceSession session(opt);
  hooks::install_observer(&out.observer);
  arm(hooks::test_faults());
  {
    rt::Scheduler sched(4);
    ds::BatchedCounter counter(sched);
    std::atomic<std::int64_t> ok{0};
    std::atomic<bool> faulted{false};
    sched.run([&] {
      try {
        rt::parallel_for(0, 64,
                         [&](std::int64_t) {
                           try {
                             counter.increment(1);
                             ok.fetch_add(1, std::memory_order_relaxed);
                           } catch (const hooks::InjectedFault&) {
                             faulted.store(true, std::memory_order_relaxed);
                           }
                         },
                         /*grain=*/1);
      } catch (const hooks::InjectedFault&) {
        faulted.store(true, std::memory_order_relaxed);
      }
    });
    out.faulted = faulted.load();
    out.value = counter.value_unsafe();
    out.ok = ok.load();
  }
  hooks::install_observer(nullptr);
  hooks::test_faults().reset();
  const trace::Trace& tr = session.stop();
  out.metrics = trace::build_metrics(tr);
  for (const trace::TraceThread& t : tr.threads) {
    for (const trace::TraceRecord& r : t.records) ++out.kept.at(r.event);
  }
}

// The identities every traced fault run keeps.  With no record dropped,
// kept + dropped == written reduces to: each entry both sinks watch was kept
// as often as the observer saw it (kFlagWon is checked by the caller).
void expect_seam_whole(const TracedFaultRun& r) {
  EXPECT_EQ(r.metrics.dropped_records, 0u);
  EXPECT_EQ(r.metrics.unmatched_edges, 0u);
  EXPECT_FALSE(r.metrics.pairing_degraded);
  EXPECT_EQ(r.kept_of(EventId::kTaskBegin), r.kept_of(EventId::kTaskEnd));
  for (std::size_t i = 0; i < trace::kNumEvents; ++i) {
    const auto id = static_cast<EventId>(i);
    if (trace::kEvents[i].sinks != trace::kToBoth || id == EventId::kFlagWon) {
      continue;
    }
    EXPECT_EQ(r.seen_of(id), r.kept_of(id)) << trace::kEvents[i].name;
  }
  EXPECT_EQ(r.value, r.ok) << "failed ops must not be applied";
}

TEST(InjectedFaultsTraced, CoreTaskFaultLeavesNoUnpairedTaskRecord) {
  REQUIRE_LIVE_HOOKS();
  TracedFaultRun r(4);
  run_traced_fault(
      [](hooks::TestFaults& f) {
        f.throw_in_core_task.store(1, std::memory_order_relaxed);
      },
      r);
  EXPECT_TRUE(r.faulted);
  expect_seam_whole(r);
  EXPECT_EQ(r.seen_of(EventId::kFlagWon), r.kept_of(EventId::kFlagWon));
  EXPECT_TRUE(r.observer.auditor.clean()) << r.observer.auditor.report();
}

TEST(InjectedFaultsTraced, BopFaultKeepsRingPairingWhole) {
  REQUIRE_LIVE_HOOKS();
  TracedFaultRun r(4);
  run_traced_fault(
      [](hooks::TestFaults& f) {
        f.throw_in_bop.store(2, std::memory_order_relaxed);
      },
      r);
  EXPECT_TRUE(r.faulted);
  EXPECT_LT(r.ok, 64);
  expect_seam_whole(r);
  EXPECT_EQ(r.seen_of(EventId::kFlagWon), r.kept_of(EventId::kFlagWon));
  EXPECT_TRUE(r.observer.auditor.clean()) << r.observer.auditor.report();
}

TEST(InjectedFaultsTraced, SkippedFlagCasIsHiddenFromTheObserverOnly) {
  REQUIRE_LIVE_HOOKS();
  TracedFaultRun r(4);
  run_traced_fault(
      [](hooks::TestFaults& f) {
        f.skip_batch_flag_cas.store(true, std::memory_order_relaxed);
      },
      r);
  EXPECT_FALSE(r.faulted);
  EXPECT_EQ(r.ok, 64);
  expect_seam_whole(r);
  // The observer saw no flag win; the ring saw one per flag hold.
  EXPECT_EQ(r.seen_of(EventId::kFlagWon), 0u);
  EXPECT_EQ(r.kept_of(EventId::kFlagWon),
            r.kept_of(EventId::kLaunchEnter) -
                r.kept_of(EventId::kLaunchChained));
  EXPECT_GT(r.kept_of(EventId::kFlagWon), 0u);
  const std::string report = r.observer.auditor.report();
  EXPECT_NE(report.find("Invariant 1"), std::string::npos) << report;
  EXPECT_NE(report.find("CAS was skipped"), std::string::npos) << report;
}

#endif  // BATCHER_AUDIT

}  // namespace
}  // namespace batcher
