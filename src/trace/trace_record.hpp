// The 16-byte trace record of the always-on tracing layer (src/trace).  The
// event vocabulary, and which fields of an event fill a16/a32, are in
// event.hpp.  Records are fixed-size so a worker's ring buffer writes them
// with two plain stores and no allocation.
#pragma once

#include <cstdint>

#include "trace/event.hpp"

namespace batcher::trace {

// One drained trace record.  The in-ring representation packs the same 16
// bytes into two relaxed-atomic words (trace_ring.hpp) so a concurrent drain
// is race-free; this is the unpacked, reader-side form.
struct TraceRecord {
  std::uint64_t ts_ns = 0;  // trace::now_ns() at emission (steady_clock)
  std::uint16_t event = 0;  // EventId
  std::uint16_t a16 = 0;
  std::uint32_t a32 = 0;
};
static_assert(sizeof(TraceRecord) == 16, "records are exactly 16 bytes");

// Payload word packing: event in bits 0-15, a16 in 16-31, a32 in 32-63.
inline std::uint64_t pack_payload(EventId event, std::uint16_t a16,
                                  std::uint32_t a32) {
  return static_cast<std::uint64_t>(event) |
         (static_cast<std::uint64_t>(a16) << 16) |
         (static_cast<std::uint64_t>(a32) << 32);
}

inline TraceRecord unpack(std::uint64_t ts_ns, std::uint64_t payload) {
  TraceRecord r;
  r.ts_ns = ts_ns;
  r.event = static_cast<std::uint16_t>(payload);
  r.a16 = static_cast<std::uint16_t>(payload >> 16);
  r.a32 = static_cast<std::uint32_t>(payload >> 32);
  return r;
}

}  // namespace batcher::trace
