// Shared batch record for the sort-merge BOPs (DESIGN.md §16).
//
// The skip list and the weight-balanced tree both gather their batch's keys
// into an array of `Tagged` records and sort it with prep::sort_tagged; the
// record's ordering breaks key ties by working-set index, so "first op on a
// key" is deterministic and the duplicate test is a compare with the previous
// sorted record.  Everything after the sort (grouping, splice, bulk merge)
// stays in the structure.  Per Invariant 1 nothing here synchronizes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "parallel/sort.hpp"

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

// Sorts a batch's records into (key, ws) order.  Tagged's `<` is a total
// order on (key, ws), so the unstable std::sort gives the same order as a
// stable sort, and it sorts in place: a batch at or below
// par::sort_serial_cutoff() runs as one serial leaf and allocates nothing.
// A larger batch goes to par::parallel_sort, whose span stays
// polylogarithmic.
template <typename Key>
void sort_tagged(std::vector<Tagged<Key>>& keys) {
  const auto n = static_cast<std::int64_t>(keys.size());
  if (n <= par::sort_serial_cutoff()) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  par::parallel_sort(keys.data(), n);
}

}  // namespace prep
}  // namespace batcher::ds
