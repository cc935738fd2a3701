// Synthetic drained traces for the trace readers' golden test (test_trace,
// TraceReaders.*).  Each case is a hand-built Trace whose MetricsReport JSON
// and Chrome export are pinned in trace_reader_golden.inc; together they
// cover every window of kWindows (event.hpp) and the edge cases of the one
// pairing replay: empty, failed and chained launches, a dropped opener, a
// dropped closer, a session stopped mid-slice, a kWorkerStart-opened
// accountable window, a join wait nested in a task, a pump park, and an
// external thread's timeout and shed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "trace/trace.hpp"

namespace batcher::trace_cases {

using trace::EventId;
using trace::TraceRecord;

inline TraceRecord rec(std::uint64_t ts, EventId e, std::uint16_t a16 = 0,
                       std::uint32_t a32 = 0) {
  return TraceRecord{ts, static_cast<std::uint16_t>(e), a16, a32};
}

inline trace::TraceThread thread(std::uint64_t serial, unsigned worker,
                                 std::vector<TraceRecord> records,
                                 std::uint64_t dropped = 0) {
  trace::TraceThread t;
  t.serial = serial;
  t.worker_id = worker;
  t.dropped = dropped;
  t.records = std::move(records);
  return t;
}

inline trace::Trace session(std::vector<trace::TraceThread> threads,
                            std::uint64_t t1 = 10000) {
  trace::Trace t;
  t.t0_ns = 1000;
  t.t1_ns = t1;
  t.threads = std::move(threads);
  return t;
}

// A worker's full batchify round trip on domain `d` that wins the flag and
// launches one batch of `n` ops (n > 0: the BOP forks one batch task).
inline std::vector<TraceRecord> round_trip(std::uint64_t ts, std::uint16_t d,
                                           std::uint32_t n) {
  return {
      rec(ts, EventId::kOpSubmit, d),
      rec(ts + 10, EventId::kAnnouncePush, d),
      rec(ts + 20, EventId::kFlagWon, d),
      rec(ts + 30, EventId::kLaunchEnter, d),
      rec(ts + 50, EventId::kCollected, d, n),
      rec(ts + 60, EventId::kTaskBegin, 1),
      rec(ts + 90, EventId::kTaskEnd, 1),
      rec(ts + 120, EventId::kBopDone, d, n),
      rec(ts + 150, EventId::kLaunchExit, d, n),
      rec(ts + 160, EventId::kFlagReopen, d),
      rec(ts + 200, EventId::kOpResume, d),
  };
}

inline std::vector<TraceRecord> join(
    std::vector<std::vector<TraceRecord>> parts) {
  std::vector<TraceRecord> out;
  for (auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

inline std::vector<std::pair<std::string, trace::Trace>> reader_cases() {
  using E = EventId;
  std::vector<std::pair<std::string, trace::Trace>> cases;

  // Every window once, on two workers, plus the counted and instant events.
  cases.emplace_back(
      "every_window",
      session({
          thread(1, 0,
                 join({
                     {rec(1100, E::kSteal),
                      rec(1150, E::kSteal, trace::kStealKindBatch),
                      rec(1200, E::kSteal, trace::kStealSuccess),
                      rec(1210, E::kTaskBegin, 0),
                      rec(1220, E::kFrameSlabRefill, 3),
                      rec(1230, E::kJoinWaitBegin),
                      rec(1240, E::kSteal,
                          trace::kStealKindBatch | trace::kStealSuccess),
                      rec(1250, E::kTaskBegin, 1),
                      rec(1300, E::kFrameRemoteFree, 2),
                      rec(1350, E::kTaskEnd, 1),
                      rec(1400, E::kJoinWaitEnd),
                      rec(1500, E::kTaskEnd, 0)},
                     round_trip(2000, 1, 2),
                     {rec(2300, E::kFlagCasFail, 1),
                      rec(2400, E::kParkBegin), rec(2900, E::kParkEnd)},
                 })),
          thread(2, 1,
                 {rec(1100, E::kTaskBegin, 0),
                  rec(1200, E::kPumpParkBegin),
                  rec(1800, E::kPumpParkEnd),
                  rec(1900, E::kOpSubmit, 1),
                  rec(1950, E::kAnnouncePush, 1),
                  rec(2010, E::kFlagCasFail, 1),
                  rec(2300, E::kOpResume, 1),
                  rec(2400, E::kTaskEnd, 0)}),
      }));

  // A launch that collects nothing: no run or complete phase.
  cases.emplace_back(
      "empty_batch",
      session({thread(1, 0,
                      {rec(1100, E::kOpSubmit, 2),
                       rec(1110, E::kFlagWon, 2),
                       rec(1120, E::kLaunchEnter, 2),
                       rec(1140, E::kCollected, 2, 0),
                       rec(1160, E::kLaunchExit, 2, 0),
                       rec(1170, E::kFlagReopen, 2),
                       rec(1200, E::kSteal),
                       rec(1300, E::kOpResume, 2)})}));

  // A BOP that threw: kCollected without kBopDone; kLaunchExit ends the run.
  cases.emplace_back(
      "failed_launch",
      session({thread(1, 0,
                      {rec(1100, E::kOpSubmit, 1),
                       rec(1110, E::kFlagWon, 1),
                       rec(1120, E::kLaunchEnter, 1),
                       rec(1140, E::kCollected, 1, 3),
                       rec(1400, E::kLaunchExit, 1, 3),
                       rec(1410, E::kFlagReopen, 1),
                       rec(1500, E::kOpResume, 1)})}));

  // Two launches under one flag hold.
  cases.emplace_back(
      "chained_launch",
      session({thread(1, 0,
                      {rec(1100, E::kOpSubmit, 1),
                       rec(1110, E::kFlagWon, 1),
                       rec(1120, E::kLaunchEnter, 1),
                       rec(1140, E::kCollected, 1, 1),
                       rec(1200, E::kBopDone, 1, 1),
                       rec(1220, E::kLaunchExit, 1, 1),
                       rec(1230, E::kLaunchChained, 1, 1),
                       rec(1240, E::kLaunchEnter, 1),
                       rec(1260, E::kCollected, 1, 2),
                       rec(1400, E::kBopDone, 1, 2),
                       rec(1430, E::kLaunchExit, 1, 2),
                       rec(1440, E::kFlagReopen, 1),
                       rec(1500, E::kOpResume, 1)}),
               thread(2, 1,
                      {rec(1105, E::kOpSubmit, 1),
                       rec(1250, E::kOpResume, 1)})}));

  // The ring lost this thread's oldest records: its stream starts inside a
  // task, an op wait and a launch's run phase, so their closers find no
  // opener.
  cases.emplace_back(
      "dropped_opener",
      session({thread(1, 0,
                      join({{rec(1100, E::kTaskEnd, 1),
                             rec(1150, E::kBopDone, 1, 2),
                             rec(1200, E::kLaunchExit, 1, 2),
                             rec(1210, E::kFlagReopen, 1),
                             rec(1300, E::kOpResume, 1)},
                            round_trip(1400, 1, 1)}),
                      /*dropped=*/7),
               thread(2, 1,
                      {rec(1100, E::kCollected, 1, 2),
                       rec(1200, E::kBopDone, 1, 2),
                       rec(1300, E::kLaunchExit, 1, 2),
                       rec(1310, E::kFlagReopen, 1)},
                      /*dropped=*/4),
               thread(3, 2,
                      {rec(1100, E::kLaunchExit, 1, 1),
                       rec(1110, E::kFlagReopen, 1),
                       rec(1200, E::kParkEnd),
                       rec(1300, E::kPumpParkEnd)},
                      /*dropped=*/2)}));

  // Closers lost mid-stream: an op wait whose resume is missing before the
  // worker's next submit, and a task whose end is missing before a park.
  cases.emplace_back(
      "dropped_closer",
      session({thread(1, 0,
                      {rec(1100, E::kOpSubmit, 1),
                       rec(1150, E::kTaskBegin, 1),
                       rec(1200, E::kTaskEnd, 1),
                       rec(1500, E::kOpSubmit, 1),
                       rec(1600, E::kOpResume, 1),
                       rec(1700, E::kTaskBegin, 0),
                       rec(1900, E::kParkBegin),
                       rec(2000, E::kParkEnd),
                       rec(2100, E::kTaskBegin, 0),
                       rec(2200, E::kTaskEnd, 0)},
                      /*dropped=*/2)}));

  // The session stopped while slices were open: mid-BOP inside a batch
  // task, between an empty batch's collect and its exit, and mid-park.
  cases.emplace_back(
      "stopped_mid_slice",
      session({thread(1, 0,
                      {rec(1100, E::kOpSubmit, 1),
                       rec(1110, E::kFlagWon, 1),
                       rec(1120, E::kLaunchEnter, 1),
                       rec(1140, E::kCollected, 1, 2),
                       rec(1150, E::kTaskBegin, 1)}),
               thread(2, 1,
                      {rec(1100, E::kOpSubmit, 2),
                       rec(1110, E::kFlagWon, 2),
                       rec(1120, E::kLaunchEnter, 2),
                       rec(1140, E::kCollected, 2, 0)}),
               thread(3, 2,
                      {rec(1100, E::kOpSubmit, 3),
                       rec(1120, E::kFlagWon, 3),
                       rec(1130, E::kLaunchEnter, 3)}),
               thread(4, 3, {rec(1100, E::kParkBegin)})},
              /*t1=*/2000));

  // A worker that started after the session opened and exited before it
  // closed: its accountable window is [kWorkerStart, kWorkerExit].
  cases.emplace_back(
      "worker_start",
      session({thread(1, 0,
                      {rec(3000, E::kWorkerStart),
                       rec(3100, E::kTaskBegin, 0),
                       rec(3400, E::kTaskEnd, 0),
                       rec(3500, E::kParkBegin),
                       rec(5000, E::kParkEnd),
                       rec(6000, E::kWorkerExit)})}));

  // A join wait nested in a task, helping with a stolen task inside it.
  cases.emplace_back(
      "join_wait_in_task",
      session({thread(1, 0,
                      {rec(1100, E::kTaskBegin, 0),
                       rec(1200, E::kJoinWaitBegin),
                       rec(1250, E::kSteal),
                       rec(1300, E::kSteal, trace::kStealSuccess),
                       rec(1310, E::kTaskBegin, 0),
                       rec(1500, E::kTaskEnd, 0),
                       rec(1600, E::kJoinWaitEnd),
                       rec(1700, E::kTaskEnd, 0)})}));

  // A router pump task asleep on its parking gate.
  cases.emplace_back(
      "pump_park",
      session({thread(1, 0,
                      {rec(1100, E::kTaskBegin, 0),
                       rec(1200, E::kPumpParkBegin),
                       rec(4000, E::kPumpParkEnd),
                       rec(4100, E::kTaskEnd, 0)})}));

  // An external submitter (no worker id) that timed out and was shed.
  cases.emplace_back(
      "external_thread",
      session({thread(1, 0, round_trip(1100, 4, 1)),
               thread(2, trace::kNoWorkerId,
                      {rec(1200, E::kOpTimeout, 4),
                       rec(1300, E::kOpShed, 4),
                       rec(1400, E::kOpShed, 4)})}));

  return cases;
}

// The Chrome export's events as a sorted multiset, one compact JSON object
// per line: two exports that differ only in event order compare equal.
inline std::string canonical_chrome_events(const std::string& json) {
  constexpr std::string_view kArray = "\"traceEvents\":[";
  std::vector<std::string> events;
  const std::size_t array = json.find(kArray);
  std::size_t i =
      array == std::string::npos ? json.size() : array + kArray.size();
  int depth = 0;
  bool in_string = false;
  std::size_t start = i;
  for (; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth++ == 0) start = i;
    } else if (c == '}') {
      if (--depth == 0) events.push_back(json.substr(start, i - start + 1));
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  std::sort(events.begin(), events.end());
  std::string out;
  for (const std::string& e : events) out += e + "\n";
  return out;
}

}  // namespace batcher::trace_cases
