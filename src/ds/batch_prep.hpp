// Shared batch record for the sort-merge BOPs (DESIGN.md §16).
//
// The skip list and the weight-balanced tree both gather their batch's keys
// into an array of `Tagged` records and sort it with par::parallel_sort; the
// record's ordering breaks key ties by working-set index, so "first op on a
// key" is deterministic and the duplicate test is a compare with the previous
// sorted record.  Everything after the sort (grouping, splice, bulk merge)
// stays in the structure.  Per Invariant 1 nothing here synchronizes.
#pragma once

#include <cstdint>

namespace batcher::ds {

namespace prep {

// A batch record: one key plus the index of the op it came from.  Ordered by
// key, then by working-set index, so equal keys keep submission order.
template <typename Key>
struct Tagged {
  Key key;
  std::uint32_t ws;

  bool operator<(const Tagged& o) const {
    return key != o.key ? key < o.key : ws < o.ws;
  }
};

}  // namespace prep
}  // namespace batcher::ds
