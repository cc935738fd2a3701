// Chrome trace_event export: renders a drained Trace as a JSON object that
// loads in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Track layout:
//   * one track per traced thread (tid = registration serial), named
//     "worker-<id>" — or "external-tid-<serial>" for non-worker submitters —
//     carrying the B/E slices of the windows kWindows (event.hpp) puts on a
//     worker track, and instants (steal hits, slab refills, chained
//     launches, op timeouts and sheds, worker start/exit);
//   * one track per batching domain (tid = 1000000 + domain id), named
//     "batcher d<N>", carrying a "batch[k]" slice per launch with its
//     collect/run/complete phases nested inside it;
//   * counter tracks ("C" events): "pending d<N>" — each domain's in-flight
//     op depth (+1 at kOpSubmit, -batch at kCollected, -1 at kOpTimeout) —
//     and "workers working", the number of threads inside a task slice.
//     Both are replayed over the globally time-sorted record stream, so the
//     counters Perfetto draws are exact, not per-thread approximations.
// The process is named "batcher" via process_name metadata.
//
// Timestamps are microseconds relative to the session start, with nanosecond
// fractions preserved.  Slices come from the one pairing replay
// (replay.hpp), so every B has its E even when the ring dropped records: a
// slice whose end never came closes at the session end.
#pragma once

#include <string>

#include "trace/trace.hpp"

namespace batcher::trace {

std::string chrome_trace_json(const Trace& trace);

// Writes chrome_trace_json to `path`.  Returns false (and leaves no partial
// file behind) if the file cannot be written.
bool write_chrome_trace(const Trace& trace, const std::string& path);

}  // namespace batcher::trace
