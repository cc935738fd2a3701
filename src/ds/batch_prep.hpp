// Shared batch-prep layer for the sort-merge BOPs (DESIGN.md §16).
//
// Every sort-merge structure (skip list, weight-balanced tree, hash map) runs
// the same prefix of phases on its working set:
//
//   gather  — copy each op's key(s) into a flat record array; variable
//             multiplicity (MultiInsert) handled with one exclusive scan of
//             per-source counts followed by a parallel scatter;
//   sort    — parallel::msort on (key, working-set index), ties broken by
//             ws index so "first/last op on a key" is deterministic;
//   group   — flag the first record of every distinct key and pack the flag
//             positions with a scan (par::pack_indices), yielding the
//             distinct-key groups in O(lg)-ish span instead of a serial
//             boundary walk;
//   combine — structure-specific: the per-group functor sees its records in
//             working-set order (the sort's tie-break), so last-writer (Put)
//             and delta-combining (Update) semantics fall out of a serial
//             in-order walk of one key's ops while distinct keys combine in
//             parallel.
//
// The merge phase (splice / bulk tree merge / bucket apply) stays in the
// structure; this header owns everything before it.  Per Invariant 1 nothing
// here synchronizes.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "runtime/api.hpp"

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

// Gather phase with per-source multiplicities.  `size_of(s)` gives source
// s's record count; `emit(s, base)` must write exactly that many records at
// out[base..).  Offsets come from one exclusive scan, so the gather itself
// is a flat parallel_for.
template <typename Rec, typename SizeFn, typename EmitFn>
void gather(std::size_t num_sources, const SizeFn& size_of, const EmitFn& emit,
            std::vector<Rec>& out, std::vector<std::uint32_t>& offsets) {
  offsets.resize(num_sources);
  rt::parallel_for(
      0, static_cast<std::int64_t>(num_sources),
      [&](std::int64_t s) {
        offsets[static_cast<std::size_t>(s)] =
            static_cast<std::uint32_t>(size_of(static_cast<std::size_t>(s)));
      },
      /*grain=*/1);
  const std::uint32_t total = par::scan_exclusive(
      offsets.data(), static_cast<std::int64_t>(num_sources),
      [](std::uint32_t a, std::uint32_t b) { return a + b; }, 0u);
  out.resize(total);
  rt::parallel_for(
      0, static_cast<std::int64_t>(num_sources),
      [&](std::int64_t s) {
        emit(static_cast<std::size_t>(s),
             static_cast<std::size_t>(offsets[static_cast<std::size_t>(s)]));
      },
      /*grain=*/1);
}

// Sort + group: sorts `recs` (by operator<) and packs the positions where a
// new key starts into `heads`, appending recs.size() as a sentinel.  Group g
// spans [heads[g], heads[g+1]) and holds one distinct key's ops in
// working-set order.
template <typename Rec>
void sort_and_group(std::vector<Rec>& recs,
                    std::vector<std::uint32_t>& heads) {
  par::parallel_sort(recs.data(), static_cast<std::int64_t>(recs.size()));
  par::pack_indices(
      static_cast<std::int64_t>(recs.size()),
      [&](std::int64_t i) {
        return i == 0 ||
               recs[static_cast<std::size_t>(i - 1)].key <
                   recs[static_cast<std::size_t>(i)].key;
      },
      heads);
  heads.push_back(static_cast<std::uint32_t>(recs.size()));
}

// Combine phase driver: applies `f(group_index, lo, hi)` to every distinct-
// key group in parallel.
template <typename Fn>
void for_each_group(const std::vector<std::uint32_t>& heads, const Fn& f) {
  if (heads.size() < 2) return;
  rt::parallel_for(
      0, static_cast<std::int64_t>(heads.size() - 1),
      [&](std::int64_t g) {
        const auto gi = static_cast<std::size_t>(g);
        f(gi, static_cast<std::size_t>(heads[gi]),
          static_cast<std::size_t>(heads[gi + 1]));
      },
      /*grain=*/1);
}

}  // namespace prep
}  // namespace batcher::ds
