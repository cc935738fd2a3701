// Tests for the always-on tracing layer (src/trace).
//
// Six layers:
//   1. TraceRing in isolation: wraparound keeps the newest records with an
//      exact dropped count, and a drain racing the writer never yields a torn
//      or out-of-order record (the seqlock re-check contract).
//   2. Disabled-path guarantees: with no session active, instrumentation
//      points record nothing and cost roughly one relaxed load (checked with
//      a deliberately generous ratio bound so the test never flakes on a
//      loaded CI host).
//   3. Session-level reconciliation on a live scheduler: the metrics derived
//      from a drained trace agree *exactly* with BatcherStats and with the
//      scheduler's destructor-final StatsSnapshot.
//   4. The same reconciliation under the audit perturber across >=1100
//      distinct seeded schedules (only with BATCHER_AUDIT hooks compiled in).
//   5. The readers' one window table: golden MetricsReport and Chrome output
//      on synthetic traces (trace_reader_cases.hpp), and every ring-bound
//      entry is a window edge or shows in a reader.
//   6. The one event seam: the event table, and a Batcher storm and a
//      ShardRouter run in which the observer and the ring count every entry
//      they both watch equally often.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "audit/audit_session.hpp"
#include "audit/schedule_perturber.hpp"
#include "batcher/batcher.hpp"
#include "ds/batched_counter.hpp"
#include "runtime/api.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/scheduler.hpp"
#include "service/shard_router.hpp"
#include "support/json.hpp"
#include "support/timing.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/histogram.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "trace/trace_ring.hpp"
#include "trace_reader_cases.hpp"

namespace batcher {
namespace {

namespace hooks = rt::hooks;
using audit::AuditSession;
using audit::SchedulePerturber;
using trace::EventId;
using trace::TraceRecord;
using trace::TraceRing;

#define REQUIRE_LIVE_HOOKS()                                               \
  do {                                                                     \
    if (!hooks::kEnabled) {                                                \
      GTEST_SKIP() << "BATCHER_AUDIT hooks not compiled into this build";  \
    }                                                                      \
  } while (0)

// --- 1. TraceRing in isolation ---------------------------------------------

void check_monotonic(const std::vector<TraceRecord>& records,
                     std::uint64_t floor_exclusive = 0) {
  std::uint64_t prev = floor_exclusive;
  for (const TraceRecord& r : records) {
    ASSERT_GT(r.ts_ns, prev) << "drained timestamps must be monotonic";
    prev = r.ts_ns;
  }
}

TEST(TraceRing, QuiescedDrainRoundTripsPayloads) {
  TraceRing ring;
  ring.init(64);
  ASSERT_EQ(ring.capacity(), 64u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ring.push(EventId::kSteal, static_cast<std::uint16_t>(i),
              static_cast<std::uint32_t>(1000 + i), /*ts_ns=*/i + 1);
  }
  TraceRing::Drained d = ring.drain();
  EXPECT_EQ(d.dropped, 0u);
  ASSERT_EQ(d.records.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(d.records[i].ts_ns, i + 1);
    EXPECT_EQ(d.records[i].event, static_cast<std::uint16_t>(EventId::kSteal));
    EXPECT_EQ(d.records[i].a16, static_cast<std::uint16_t>(i));
    EXPECT_EQ(d.records[i].a32, static_cast<std::uint32_t>(1000 + i));
  }
  // Nothing left after a drain.
  TraceRing::Drained again = ring.drain();
  EXPECT_TRUE(again.records.empty());
  EXPECT_EQ(again.dropped, 0u);
}

TEST(TraceRing, OverflowingTwiceKeepsNewestWithExactDropCount) {
  // Satellite requirement: a writer that laps the ring more than twice must
  // still drain to monotonically-timestamped records plus an exact count of
  // what was overwritten.
  constexpr std::uint64_t kCapacity = 64;
  constexpr std::uint64_t kWritten = kCapacity * 2 + kCapacity / 2;  // 2.5 laps
  TraceRing ring;
  ring.init(kCapacity);
  for (std::uint64_t i = 0; i < kWritten; ++i) {
    ring.push(EventId::kTaskBegin, 0, static_cast<std::uint32_t>(i),
              /*ts_ns=*/i + 1);
  }
  TraceRing::Drained d = ring.drain();
  EXPECT_EQ(d.records.size(), kCapacity);
  EXPECT_EQ(d.dropped, kWritten - kCapacity);
  check_monotonic(d.records);
  // The survivors are exactly the newest kCapacity records.
  ASSERT_FALSE(d.records.empty());
  EXPECT_EQ(d.records.front().ts_ns, kWritten - kCapacity + 1);
  EXPECT_EQ(d.records.back().ts_ns, kWritten);
}

TEST(TraceRing, DrainWhileWritingStaysMonotonicAndAccountsEveryRecord) {
  // A reader drains repeatedly while the writer overflows the ring many
  // times.  Contract: every drained batch is timestamp-monotonic (and later
  // than everything drained before — no torn/stale record survives the
  // seqlock re-check), and kept + dropped accounts for every push.
  constexpr std::uint64_t kCapacity = 256;
  constexpr std::uint64_t kWritten = kCapacity * 40;
  TraceRing ring;
  ring.init(kCapacity);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 0; i < kWritten; ++i) {
      ring.push(EventId::kTaskEnd, 0, 0, /*ts_ns=*/i + 1);
    }
    done.store(true, std::memory_order_release);
  });

  std::uint64_t kept = 0, dropped = 0, last_ts = 0;
  const auto consume = [&] {
    TraceRing::Drained d = ring.drain();
    check_monotonic(d.records, last_ts);
    if (!d.records.empty()) last_ts = d.records.back().ts_ns;
    kept += d.records.size();
    dropped += d.dropped;
  };
  while (!done.load(std::memory_order_acquire)) consume();
  writer.join();
  consume();  // final drain after the writer quiesced

  EXPECT_EQ(kept + dropped, kWritten);
  EXPECT_EQ(last_ts, kWritten);  // the newest record always survives
  EXPECT_GT(kept, 0u);
}

// A percentile is its bucket's ceiling clamped to the samples' range, so it
// never reads past the largest sample (nor below the smallest).
TEST(LatencyHistogram, PercentilesClampToTheSamplesRange) {
  trace::LatencyHistogram h;
  EXPECT_EQ(h.percentile_ns(0.5), 0u);
  h.add(1000);  // bucket [512, 1024)
  EXPECT_EQ(h.percentile_ns(0.0), 1000u);
  EXPECT_EQ(h.percentile_ns(0.5), 1000u);
  EXPECT_EQ(h.percentile_ns(0.999), 1000u);
  h.add(3);  // bucket [2, 4)
  EXPECT_EQ(h.percentile_ns(0.5), 4u);
  EXPECT_EQ(h.percentile_ns(0.999), 1000u);
  trace::LatencyHistogram zero;
  zero.add(0);
  EXPECT_EQ(zero.percentile_ns(0.5), 0u);
}

// --- 2. Disabled-path guarantees -------------------------------------------

TEST(TraceDisabled, EmitsOutsideASessionRecordNothing) {
  ASSERT_FALSE(trace::enabled());
  for (int i = 0; i < 1000; ++i) {
    trace::record(0, EventId::kTaskBegin);
    trace::record(0, EventId::kOpSubmit, 7);
  }
  // A fresh session sees none of it: pre-session emits were dropped at the
  // enabled() check, and session start resets any ring this thread already
  // had from an earlier test.
  trace::TraceSession session;
  const trace::Trace& tr = session.stop();
  EXPECT_EQ(tr.total_records(), 0u);
  EXPECT_EQ(tr.dropped_records(), 0u);
  EXPECT_TRUE(tr.threads.empty());
}

TEST(TraceDisabled, EmitOverheadIsNearZero) {
  // The disabled instrumentation point is one relaxed load and a
  // predicted-not-taken branch.  Bound it against a trivial arithmetic loop
  // with a *very* generous ratio (and an absolute floor) so a loaded or
  // virtualized CI host cannot flake this test; a regression that would
  // matter (a lock, an allocation, a syscall) blows past 50x instantly.
  ASSERT_FALSE(trace::enabled());
  constexpr std::int64_t kIters = 4'000'000;
  volatile std::uint64_t sink = 0;

  Stopwatch base_sw;
  for (std::int64_t i = 0; i < kIters; ++i) sink = sink + 1;
  const double base_s = base_sw.elapsed_seconds();

  Stopwatch emit_sw;
  for (std::int64_t i = 0; i < kIters; ++i) {
    if (trace::enabled()) [[unlikely]] {
      trace::record(0, EventId::kTaskBegin);
    }
    sink = sink + 1;
  }
  const double emit_s = emit_sw.elapsed_seconds();

  EXPECT_EQ(sink, static_cast<std::uint64_t>(2 * kIters));
  EXPECT_LT(emit_s, base_s * 50.0 + 0.05)
      << "disabled trace check cost " << emit_s << "s vs baseline " << base_s
      << "s over " << kIters << " iterations";
}

// --- 3. Session-level reconciliation ---------------------------------------

// Runs `ops` counter increments on a `workers`-wide scheduler inside an
// active trace session and returns everything needed for reconciliation.
// The StatsSnapshot is the destructor-final one, so every counter the trace
// saw has also landed in the snapshot (and vice versa) — no teardown race.
struct Reconciled {
  BatcherStats batcher;
  rt::StatsSnapshot sched;
  trace::MetricsReport metrics;
};

Reconciled run_traced_counter(unsigned workers, std::int64_t ops,
                              std::int64_t grain, std::size_t ring_capacity) {
  trace::TraceSession::Options opt;
  opt.ring_capacity = ring_capacity;
  trace::TraceSession session(opt);
  Reconciled out;
  {
    rt::Scheduler sched(workers);
    sched.export_final_stats(&out.sched);
    ds::BatchedCounter counter(sched);
    sched.run([&] {
      rt::parallel_for(0, ops, [&](std::int64_t) { counter.increment(1); },
                       grain);
    });
    EXPECT_EQ(counter.value_unsafe(), ops);
    out.batcher = counter.batcher().stats();
  }  // joins worker threads: all emissions and stat bumps are final
  out.metrics = trace::build_metrics(session.stop());
  return out;
}

// The identities a drained trace must satisfy against the domain's
// BatcherStats and the scheduler's final StatsSnapshot.
void expect_reconciles(const Reconciled& r) {
  const BatcherStats& st = r.batcher;
  const trace::MetricsReport& m = r.metrics;

  ASSERT_EQ(m.dropped_records, 0u) << "ring overflowed; grow ring_capacity";
  EXPECT_EQ(m.unmatched_edges, 0u);

  // Histogram totals vs BatcherStats.
  EXPECT_EQ(m.ops(), st.ops_processed);
  EXPECT_EQ(m.ops_submitted, st.ops_processed);
  EXPECT_EQ(m.batches, st.batches_launched);
  EXPECT_EQ(m.empty_batches, st.empty_batches);
  // A chained launch shares its predecessor's flag hold, so the flag-held
  // histogram records one entry per chain, not per launch.
  EXPECT_EQ(m.flag_held.count(), st.batches_launched - st.chained_launches);
  EXPECT_EQ(m.chained_launches, st.chained_launches);
  EXPECT_EQ(m.announce_pushes, st.announce_pushes);
  EXPECT_EQ(m.flag_cas_failures, st.flag_cas_failures);
  EXPECT_EQ(m.collect_phase.count(), st.batches_launched);
  EXPECT_EQ(m.run_phase.count(), st.batches_launched - st.empty_batches);
  EXPECT_EQ(m.complete_phase.count(), st.batches_launched - st.empty_batches);
  EXPECT_EQ(m.max_batch_size(), st.max_batch_size);

  // Batch-size distributions are bucket-for-bucket identical.
  const std::size_t buckets =
      std::max(m.batch_size_hist.size(), st.batch_size_histogram.size());
  for (std::size_t k = 0; k < buckets; ++k) {
    const std::uint64_t traced =
        k < m.batch_size_hist.size() ? m.batch_size_hist[k] : 0;
    const std::uint64_t counted =
        k < st.batch_size_histogram.size() ? st.batch_size_histogram[k] : 0;
    EXPECT_EQ(traced, counted) << "batch size " << k;
  }

  // Scheduler-side counts vs the destructor-final snapshot.
  EXPECT_EQ(m.tasks_core + m.tasks_batch, r.sched.tasks_executed);
  EXPECT_EQ(m.steal_attempts_core, r.sched.core_steal_attempts);
  EXPECT_EQ(m.steal_attempts_batch, r.sched.batch_steal_attempts);
  EXPECT_EQ(m.steals_won, r.sched.steals_succeeded);
}

TEST(TraceSessionLive, CounterWorkloadReconcilesExactly) {
  const Reconciled r = run_traced_counter(/*workers=*/4, /*ops=*/2048,
                                          /*grain=*/4,
                                          /*ring_capacity=*/1u << 18);
  expect_reconciles(r);
  EXPECT_EQ(r.batcher.ops_processed, 2048u);
  EXPECT_GT(r.metrics.batches, 0u);
  EXPECT_GT(r.metrics.total_records, 0u);
  EXPECT_GT(r.metrics.tasks_core, 0u);
  // The counter's BOP forks its writeback, so batch tasks appear exactly
  // when some batch collected >= 2 ops.
  if (r.metrics.max_batch_size() <= 1) {
    EXPECT_EQ(r.metrics.tasks_batch, 0u);
  }
}

TEST(TraceSessionLive, SingleWorkerHasSingletonBatchesOnly) {
  const Reconciled r = run_traced_counter(/*workers=*/1, /*ops=*/256,
                                          /*grain=*/1,
                                          /*ring_capacity=*/1u << 16);
  expect_reconciles(r);
  // Invariant 2 (batch size <= P) specializes to all-singleton batches.
  EXPECT_EQ(r.metrics.max_batch_size(), 1u);
}

TEST(TraceSessionLive, BackToBackSessionsStayIndependent) {
  const Reconciled a = run_traced_counter(2, 512, 2, 1u << 16);
  const Reconciled b = run_traced_counter(2, 512, 2, 1u << 16);
  expect_reconciles(a);
  expect_reconciles(b);
  // Second session only saw the second run (rings reset at session start,
  // dead rings pruned): same op volume, not accumulated.
  EXPECT_EQ(a.metrics.ops(), 512u);
  EXPECT_EQ(b.metrics.ops(), 512u);
}

// --- 4. Reconciliation under the audit perturber ---------------------------

TEST(TracePerturbedSweep, HistogramTotalsMatchStatsAcross1100Schedules) {
  REQUIRE_LIVE_HOOKS();
  constexpr unsigned kWorkers = 4;
  constexpr std::uint64_t kSeeds = 1100;

  // Same light perturbation as the audit sweep: enough to force distinct
  // interleavings per seed while keeping 1100 schedules fast.
  SchedulePerturber::Options opts;
  opts.yield_one_in = 96;
  opts.pause_one_in = 8;
  opts.max_pause_spins = 32;
  AuditSession audit(kWorkers, 0, opts);
  audit.install();

  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    audit.reseed(seed);
    trace::TraceSession::Options topt;
    topt.ring_capacity = 1u << 16;
    trace::TraceSession session(topt);
    Reconciled r;
    {
      rt::Scheduler sched(kWorkers);
      sched.export_final_stats(&r.sched);
      ds::BatchedCounter counter(sched);
      if (seed % 2 == 0) {
        sched.run([&] {
          rt::parallel_for(0, 48, [&](std::int64_t) { counter.increment(1); },
                           /*grain=*/1);
        });
      } else {
        sched.run([&] {
          rt::parallel_for(0, 8, [&](std::int64_t) {
            rt::parallel_for(0, 6,
                             [&](std::int64_t) { counter.increment(1); },
                             /*grain=*/1);
          },
                           /*grain=*/1);
        });
      }
      ASSERT_EQ(counter.value_unsafe(), 48);
      r.batcher = counter.batcher().stats();
    }
    r.metrics = trace::build_metrics(session.stop());

    ASSERT_EQ(r.batcher.ops_processed, 48u) << "seed " << seed;
    ASSERT_NO_FATAL_FAILURE(expect_reconciles(r)) << "seed " << seed;
    if (::testing::Test::HasFailure()) {
      FAIL() << "reconciliation failed at seed " << seed
             << " (replay with this seed)";
    }
  }
  audit.uninstall();
}

// steal_to_success measures one search: a miss, then the steal that won.
// A streak the worker leaves without a win (it runs a task of its own,
// resumes from batchify, or parks) is dropped, so on each synthetic stream
// below — miss, interruption, miss, hit — the one sample spans only the
// second miss to the hit (400 -> 700 ns), not the first miss (100 ns).
TEST(TraceMetrics, StealToSuccessDropsStreakLeftWithoutAWin) {
  using trace::EventId;
  auto rec = [](std::uint64_t ts, EventId e, std::uint16_t a16 = 0) {
    return trace::TraceRecord{ts, static_cast<std::uint16_t>(e), a16, 0};
  };
  const std::vector<std::vector<trace::TraceRecord>> interruptions = {
      {rec(200, EventId::kTaskBegin), rec(300, EventId::kTaskEnd)},
      {rec(150, EventId::kOpSubmit), rec(200, EventId::kOpResume)},
      {rec(200, EventId::kParkBegin), rec(300, EventId::kParkEnd)},
  };
  for (const auto& interruption : interruptions) {
    trace::TraceThread thread;
    thread.worker_id = 0;
    thread.records.push_back(rec(100, EventId::kSteal));  // miss
    thread.records.insert(thread.records.end(), interruption.begin(),
                          interruption.end());
    thread.records.push_back(rec(400, EventId::kSteal));  // miss
    thread.records.push_back(rec(700, EventId::kSteal, trace::kStealSuccess));
    thread.records.push_back(rec(710, EventId::kTaskBegin));  // stolen task
    thread.records.push_back(rec(800, EventId::kTaskEnd));
    trace::Trace t;
    t.t0_ns = 0;
    t.t1_ns = 1000;
    t.threads.push_back(thread);
    const trace::MetricsReport m = trace::build_metrics(t);
    const auto what = static_cast<EventId>(interruption.back().event);
    EXPECT_EQ(m.steal_to_success.count(), 1u) << static_cast<int>(what);
    EXPECT_EQ(m.steal_to_success.min_ns(), 300u) << static_cast<int>(what);
    EXPECT_EQ(m.steal_to_success.max_ns(), 300u) << static_cast<int>(what);
  }
}

// --- 5. The readers' one window table ---------------------------------------

struct GoldenCase {
  const char* name;
  const char* metrics;  // MetricsReport::to_json
  const char* chrome;   // canonical_chrome_events(chrome_trace_json)
};
const GoldenCase kGolden[] = {
#include "trace_reader_golden.inc"
};

// build_metrics and chrome_trace_json read every pairing through one replay
// of kWindows; on each synthetic trace their output is what the readers
// produced before (the Chrome export compared as a multiset of events).
TEST(TraceReaders, GoldenOutputsOnEveryCase) {
  const auto cases = trace_cases::reader_cases();
  ASSERT_EQ(cases.size(), std::size(kGolden));
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [name, tr] = cases[i];
    ASSERT_EQ(name, kGolden[i].name);
    json::Writer w;
    trace::build_metrics(tr).to_json(w);
    EXPECT_EQ(w.str(), kGolden[i].metrics) << name;
    const std::string chrome = trace::chrome_trace_json(tr);
    EXPECT_EQ(trace_cases::canonical_chrome_events(chrome), kGolden[i].chrome)
        << name;
  }
}

bool is_window_edge(EventId e) {
  for (const trace::WindowInfo& w : trace::kWindows) {
    if (w.opener == e || w.closer == e) return true;
  }
  return false;
}

// A window the ring never sees could never be measured.
TEST(TraceReaders, EveryWindowEdgeReachesTheRing) {
  for (const trace::WindowInfo& w : trace::kWindows) {
    for (const EventId e : {w.opener, w.closer}) {
      EXPECT_NE(trace::event_info(e).sinks & trace::kToRing, 0)
          << trace::event_info(e).name;
    }
  }
}

// Every ring-bound entry is a window edge, or a record of it alone changes
// what the readers output (a counted event or a Chrome instant), so a new
// ring entry cannot fall silently into a reader's default.  Observer-only
// entries never reach a ring, and the readers ignore them.
TEST(TraceReaders, EveryRingEntryIsAWindowEdgeOrShows) {
  auto outputs = [](EventId e) {
    const trace::Trace t = trace_cases::session({trace_cases::thread(
        1, 0, {trace_cases::rec(2000, e, trace::kStealSuccess, 1)})});
    json::Writer w;
    trace::build_metrics(t).to_json(w);
    return w.str() + trace::chrome_trace_json(t);
  };
  const std::string none = outputs(EventId::kNone);
  for (std::size_t i = 1; i < trace::kNumEvents; ++i) {
    const auto e = static_cast<EventId>(i);
    const trace::EventInfo& info = trace::event_info(e);
    if ((info.sinks & trace::kToRing) == 0) {
      EXPECT_FALSE(is_window_edge(e)) << info.name;
      EXPECT_EQ(outputs(e), none) << info.name;
    } else if (!is_window_edge(e)) {
      EXPECT_NE(outputs(e), none) << info.name << " shows in no reader";
    }
  }
}

// --- 6. One event seam -----------------------------------------------------

// Every entry has its own real name and reaches some consumer, and exactly
// the eleven program points both consumers watch reach both.
TEST(TraceSeam, EveryEntryHasOneNameAndTheTableKeepsBothStreams) {
  EXPECT_EQ(trace::kNumEvents,
            static_cast<std::size_t>(EventId::kPumpParkEnd) + 1);
  std::set<std::string_view> names;
  std::set<EventId> both;
  for (std::size_t i = 0; i < trace::kNumEvents; ++i) {
    const trace::EventInfo& info = trace::kEvents[i];
    EXPECT_FALSE(info.name.empty()) << "entry " << i;
    EXPECT_TRUE(names.insert(info.name).second)
        << "entry " << i << " repeats the name " << info.name;
    if (i != 0) {
      EXPECT_NE(info.sinks, 0) << info.name << " reaches no sink";
    }
    if (info.sinks == trace::kToBoth) both.insert(static_cast<EventId>(i));
  }
  const std::set<EventId> paired = {
      EventId::kTaskBegin,     EventId::kSteal,       EventId::kOpSubmit,
      EventId::kAnnouncePush,  EventId::kFlagWon,     EventId::kLaunchEnter,
      EventId::kCollected,     EventId::kLaunchExit,  EventId::kLaunchChained,
      EventId::kOpResume,      EventId::kPumpParkBegin};
  EXPECT_EQ(both, paired);
}

// Counts what the observer sees, per entry.
struct CountingObserver final : hooks::ScheduleObserver {
  std::array<std::atomic<std::uint64_t>, trace::kNumEvents> seen{};
  void on_event(const hooks::Event& e) override {
    seen[static_cast<std::size_t>(e.id)].fetch_add(1,
                                                   std::memory_order_relaxed);
  }
};

// Runs `work` with a session open and a counting observer installed, and
// checks that every entry reaching both sinks reached each equally often.
// Returns the ring's per-entry counts.
template <typename Work>
std::array<std::uint64_t, trace::kNumEvents> expect_sinks_agree(Work&& work) {
  std::array<std::uint64_t, trace::kNumEvents> kept{};
  CountingObserver observer;
  trace::TraceSession::Options opt;
  opt.ring_capacity = 1u << 18;
  trace::TraceSession session(opt);
  hooks::install_observer(&observer);
  work();
  hooks::install_observer(nullptr);
  const trace::Trace& tr = session.stop();
  EXPECT_EQ(tr.dropped_records(), 0u) << "ring overflowed";
  for (const trace::TraceThread& t : tr.threads) {
    for (const TraceRecord& r : t.records) ++kept.at(r.event);
  }
  for (std::size_t i = 0; i < trace::kNumEvents; ++i) {
    if (trace::kEvents[i].sinks != trace::kToBoth) continue;
    EXPECT_EQ(observer.seen[i].load(), kept[i]) << trace::kEvents[i].name;
  }
  return kept;
}

std::uint64_t count(const std::array<std::uint64_t, trace::kNumEvents>& kept,
                    EventId id) {
  return kept[static_cast<std::size_t>(id)];
}

TEST(TraceSeam, BatcherStormFeedsObserverAndRingAlike) {
  REQUIRE_LIVE_HOOKS();
  const auto kept = expect_sinks_agree([] {
    rt::Scheduler sched(4);
    ds::BatchedCounter counter(sched);
    sched.run([&] {
      rt::parallel_for(0, 2048, [&](std::int64_t) { counter.increment(1); },
                       /*grain=*/2);
    });
    EXPECT_EQ(counter.value_unsafe(), 2048);
  });
  EXPECT_EQ(count(kept, EventId::kOpSubmit), 2048u);
  EXPECT_GT(count(kept, EventId::kLaunchEnter), 0u);
  EXPECT_GT(count(kept, EventId::kSteal), 0u);
}

TEST(TraceSeam, ShardRouterRunFeedsObserverAndRingAlike) {
  REQUIRE_LIVE_HOOKS();
  constexpr std::size_t kClients = 2;
  constexpr std::int64_t kPerClient = 256;
  const auto kept = expect_sinks_agree([&] {
    rt::Scheduler sched(4);
    std::vector<std::unique_ptr<ds::BatchedCounter>> counters;
    std::vector<BatchedStructure*> shards;
    for (int i = 0; i < 4; ++i) {
      counters.push_back(std::make_unique<ds::BatchedCounter>(sched));
      shards.push_back(counters.back().get());
    }
    service::ShardRouter::Options opt;
    opt.max_threads = kClients;
    service::ShardRouter router(sched, opt);
    const std::size_t group = router.add_group(shards);
    std::thread driver([&] {
      // An idle router parks every pump but the last spinner: wait for one
      // park, so the run covers the park event, then load it.
      const auto give_up = std::chrono::steady_clock::now() +
                           std::chrono::seconds(10);
      while (router.pump_parks() == 0 &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::vector<std::thread> clients;
      for (std::size_t t = 0; t < kClients; ++t) {
        clients.emplace_back([&, t] {
          for (std::int64_t i = 0; i < kPerClient; ++i) {
            ds::BatchedCounter::Op op;
            op.delta = 1;
            router.submit(group, i, t, op);
          }
        });
      }
      for (auto& c : clients) c.join();
      router.shutdown();
    });
    sched.run([&] { router.serve(); });
    driver.join();
    std::int64_t sum = 0;
    for (const auto& c : counters) sum += c->value_unsafe();
    EXPECT_EQ(sum, static_cast<std::int64_t>(kClients * kPerClient));
  });
  EXPECT_GT(count(kept, EventId::kTaskBegin), 0u);
  EXPECT_GT(count(kept, EventId::kPumpParkBegin), 0u);
}

}  // namespace
}  // namespace batcher
