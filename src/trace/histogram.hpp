// Log-bucketed latency histogram.
//
// Bucket i (for i >= 1) covers the nanosecond range [2^(i-1), 2^i); bucket 0
// holds exact zeros.  64 buckets therefore span every representable uint64
// duration, and a bucket index is one `bit_width` instruction — cheap enough
// to record into from measurement loops, not just at drain time.  Buckets
// are rt::Counter cells updated with add_saturating, so concurrent recording
// is safe and an overflowing bucket pins at "full" instead of wrapping.
//
// count/sum/min/max ride along for exact means; percentiles come from the
// buckets, clamped to [min, max], and are therefore bounded by one power of
// two of error, which is the right fidelity for the latency-distribution
// questions the paper's analysis raises (is the flag held O(batch) time? is
// op latency bimodal between launchers and trapped helpers?).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "runtime/stats.hpp"

namespace batcher::trace {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  // Counter cells make the histogram non-copyable by default; reports are
  // moved/copied around after recording has stopped, so value semantics via
  // relaxed snapshots are fine.
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram& other) { copy_from(other); }
  LatencyHistogram& operator=(const LatencyHistogram& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }

  static std::size_t bucket_of(std::uint64_t ns) {
    const int w = std::bit_width(ns);  // 0 for ns == 0
    return static_cast<std::size_t>(w < 64 ? w : 63);
  }
  // Inclusive lower bound of a bucket's range.
  static std::uint64_t bucket_floor_ns(std::size_t i) {
    return i == 0 ? 0 : (std::uint64_t{1} << (i - 1));
  }
  // Exclusive upper bound (saturates for the last bucket).
  static std::uint64_t bucket_ceil_ns(std::size_t i) {
    return i >= 63 ? ~std::uint64_t{0} : (std::uint64_t{1} << i);
  }

  void add(std::uint64_t ns) {
    buckets_[bucket_of(ns)].add_saturating();
    count_.bump();
    sum_ns_.bump(ns);
    // min/max are maintained with racy read-modify-writes: exact for the
    // single-threaded drain-time use, monotone-approximate if ever shared.
    if (count() == 1 || ns < min_ns_.get()) {
      min_ns_.reset();
      min_ns_.bump(ns);
    }
    if (ns > max_ns_.get()) {
      max_ns_.reset();
      max_ns_.bump(ns);
    }
  }

  void merge(const LatencyHistogram& other) {
    if (other.count() == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i].add_saturating(other.buckets_[i].get());
    }
    if (count() == 0 || other.min_ns() < min_ns()) {
      min_ns_.reset();
      min_ns_.bump(other.min_ns());
    }
    if (other.max_ns() > max_ns()) {
      max_ns_.reset();
      max_ns_.bump(other.max_ns());
    }
    count_.bump(other.count());
    sum_ns_.bump(other.sum_ns());
  }

  std::uint64_t count() const { return count_.get(); }
  std::uint64_t sum_ns() const { return sum_ns_.get(); }
  std::uint64_t min_ns() const { return count() == 0 ? 0 : min_ns_.get(); }
  std::uint64_t max_ns() const { return max_ns_.get(); }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i].get(); }

  double mean_ns() const {
    return count() == 0
               ? 0.0
               : static_cast<double>(sum_ns()) / static_cast<double>(count());
  }

  // Upper bound (bucket ceiling) of the bucket containing the q-quantile,
  // q in [0, 1], clamped to [min_ns, max_ns]: a ceiling past the largest
  // sample bounds nothing.  Returns 0 for an empty histogram.
  std::uint64_t percentile_ns(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += bucket(i);
      if (static_cast<double>(seen) >= target && seen > 0) {
        return std::min(std::max(bucket_ceil_ns(i), min_ns()), max_ns());
      }
    }
    return max_ns();
  }

  void reset() {
    for (auto& b : buckets_) b.reset();
    count_.reset();
    sum_ns_.reset();
    min_ns_.reset();
    max_ns_.reset();
  }

 private:
  void copy_from(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      buckets_[i].add_saturating(other.buckets_[i].get());
    }
    count_.bump(other.count_.get());
    sum_ns_.bump(other.sum_ns_.get());
    min_ns_.bump(other.min_ns_.get());
    max_ns_.bump(other.max_ns_.get());
  }

  rt::Counter buckets_[kBuckets];
  rt::Counter count_;
  rt::Counter sum_ns_;
  rt::Counter min_ns_;
  rt::Counter max_ns_;
};

}  // namespace batcher::trace
