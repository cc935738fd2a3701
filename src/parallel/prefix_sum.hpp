// Parallel prefix sums (scan).
//
// Prefix sums are the paper's workhorse primitive: the batched counter's BOP
// is one scan (Fig. 2), and LAUNCHBATCH compacts the pending array with one
// (Fig. 4).  `scan_inclusive_blocked` is the three-phase scheme (block sums,
// serial scan of per-block sums, block fixup): Θ(n) work, Θ(n/B + B) span;
// with B ≈ √n this is Θ(√n), and for the ≤P-element arrays BATCHER scans it
// is effectively flat.  It is in-place and generic over the (associative)
// operator.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

#include "runtime/api.hpp"

namespace batcher::par {

// Serial cutoff shared by the blocked scan/reduce/pack schemes (here and in
// parallel/scan.hpp): inputs of at most this size run as one serial loop,
// with no task spawns and no block-total allocation.  Forking pays off only
// once the per-block work dwarfs the spawn cost; below the cutoff the serial
// loop is both faster *and* a constant-span leaf, so the asymptotic story is
// unchanged.  Tunable (like the msort cutoffs in parallel/sort.hpp) so span
// tests can force the parallel scheme on small inputs.
inline std::atomic<std::int64_t>& scan_cutoff_cell() {
  static std::atomic<std::int64_t> cell{512};
  return cell;
}
inline std::int64_t scan_serial_cutoff() {
  return scan_cutoff_cell().load(std::memory_order_relaxed);
}
inline void set_scan_serial_cutoff(std::int64_t n) {
  scan_cutoff_cell().store(n < 1 ? 1 : n, std::memory_order_relaxed);
}

// RAII override, mirroring sort.hpp's SortCutoffGuard.
class ScanCutoffGuard {
 public:
  explicit ScanCutoffGuard(std::int64_t cutoff)
      : saved_(scan_serial_cutoff()) {
    set_scan_serial_cutoff(cutoff);
  }
  ~ScanCutoffGuard() { set_scan_serial_cutoff(saved_); }
  ScanCutoffGuard(const ScanCutoffGuard&) = delete;
  ScanCutoffGuard& operator=(const ScanCutoffGuard&) = delete;

 private:
  std::int64_t saved_;
};

// In-place inclusive scan.
template <typename T, typename Op>
void scan_inclusive_blocked(T* data, std::int64_t n, const Op& op) {
  if (n <= 1) return;
  rt::Worker* w = rt::current_worker();
  const std::int64_t p = (w != nullptr) ? w->scheduler()->num_workers() : 1;
  const std::int64_t blocks =
      n <= scan_serial_cutoff() ? 1 : std::min<std::int64_t>(n, 4 * p);
  if (blocks <= 1) {
    for (std::int64_t i = 1; i < n; ++i) data[i] = op(data[i - 1], data[i]);
    return;
  }
  const std::int64_t block_size = (n + blocks - 1) / blocks;
  std::vector<T> sums(static_cast<std::size_t>(blocks));

  // Phase 1: independent scans of each block, recording each block's total.
  rt::parallel_for(
      0, blocks,
      [&](std::int64_t b) {
        const std::int64_t lo = b * block_size;
        const std::int64_t hi = std::min(n, lo + block_size);
        for (std::int64_t i = lo + 1; i < hi; ++i)
          data[i] = op(data[i - 1], data[i]);
        sums[static_cast<std::size_t>(b)] = data[hi - 1];
      },
      /*grain=*/1);

  // Phase 2: serial exclusive scan over the (few) block totals.
  for (std::int64_t b = 1; b < blocks; ++b)
    sums[static_cast<std::size_t>(b)] =
        op(sums[static_cast<std::size_t>(b - 1)], sums[static_cast<std::size_t>(b)]);

  // Phase 3: add each block's prefix offset.
  rt::parallel_for(
      1, blocks,
      [&](std::int64_t b) {
        const std::int64_t lo = b * block_size;
        const std::int64_t hi = std::min(n, lo + block_size);
        const T& offset = sums[static_cast<std::size_t>(b - 1)];
        for (std::int64_t i = lo; i < hi; ++i) data[i] = op(offset, data[i]);
      },
      /*grain=*/1);
}

// Default entry point used throughout the library.
template <typename T, typename Op>
void scan_inclusive(T* data, std::int64_t n, const Op& op) {
  scan_inclusive_blocked(data, n, op);
}

template <typename T>
void prefix_sums(T* data, std::int64_t n) {
  scan_inclusive(data, n, [](const T& a, const T& b) { return a + b; });
}

}  // namespace batcher::par
