#include "ds/batched_hashmap.hpp"

#include <algorithm>

#include "parallel/scan.hpp"
#include "parallel/sort.hpp"
#include "runtime/api.hpp"
#include "support/config.hpp"

namespace batcher::ds {

namespace {
// Fibonacci-style mixer; buckets_.size() is always a power of two.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}
}  // namespace

BatchedHashMap::BatchedHashMap(rt::Scheduler& sched)
    : buckets_(64), batcher_(sched, *this) {}

std::size_t BatchedHashMap::bucket_of(Key key, std::size_t nbuckets) const {
  return static_cast<std::size_t>(mix(static_cast<std::uint64_t>(key))) &
         (nbuckets - 1);
}

// ---------------------------------------------------------------------------
// Blocking API.
// ---------------------------------------------------------------------------

void BatchedHashMap::put(Key key, Value value) {
  Op op;
  op.kind = Kind::Put;
  op.key = key;
  op.value = value;
  batcher_.batchify(op);
}

std::optional<BatchedHashMap::Value> BatchedHashMap::get(Key key) {
  Op op;
  op.kind = Kind::Get;
  op.key = key;
  batcher_.batchify(op);
  return op.out;
}

bool BatchedHashMap::erase(Key key) {
  Op op;
  op.kind = Kind::Erase;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

BatchedHashMap::Value BatchedHashMap::update_add(Key key, Value delta) {
  Op op;
  op.kind = Kind::Update;
  op.key = key;
  op.value = delta;
  batcher_.batchify(op);
  return *op.out;
}

// ---------------------------------------------------------------------------
// Unsynchronized API.
// ---------------------------------------------------------------------------

void BatchedHashMap::put_unsafe(Key key, Value value) {
  Bucket& b = buckets_[bucket_of(key, buckets_.size())];
  for (Entry& e : b) {
    if (e.key == key) {
      e.value = value;
      return;
    }
  }
  b.push_back(Entry{key, value});
  ++size_;
  maybe_resize();
}

std::optional<BatchedHashMap::Value> BatchedHashMap::get_unsafe(Key key) const {
  const Bucket& b = buckets_[bucket_of(key, buckets_.size())];
  for (const Entry& e : b) {
    if (e.key == key) return e.value;
  }
  return std::nullopt;
}

bool BatchedHashMap::check_invariants() const {
  std::size_t count = 0;
  for (std::size_t bi = 0; bi < buckets_.size(); ++bi) {
    for (const Entry& e : buckets_[bi]) {
      if (bucket_of(e.key, buckets_.size()) != bi) return false;
      ++count;
    }
  }
  return count == size_;
}

// ---------------------------------------------------------------------------
// BOP.
// ---------------------------------------------------------------------------

void BatchedHashMap::run_batch(OpRecordBase* const* ops, std::size_t count) {
  if (count == 0) return;
  // Gather + sort by (bucket, key, ws index): one sort yields the per-key
  // combine groups and, via their heads, the per-bucket apply groups.
  recs_.resize(count);
  rt::parallel_for(
      0, static_cast<std::int64_t>(count),
      [&](std::int64_t i) {
        Op* op = static_cast<Op*>(ops[static_cast<std::size_t>(i)]);
        recs_[static_cast<std::size_t>(i)] = SortRec{
            static_cast<std::uint64_t>(bucket_of(op->key, buckets_.size())),
            op->key, static_cast<std::uint32_t>(i), op};
      },
      /*grain=*/1);
  par::parallel_sort(recs_.data(), static_cast<std::int64_t>(recs_.size()));

  // Distinct-key groups via scan-pack (same key implies same bucket, so the
  // key test alone would miss equal keys across bucket boundaries only if
  // such records existed — they cannot).
  const std::int64_t ngroups = par::pack_indices(
      static_cast<std::int64_t>(count),
      [&](std::int64_t i) {
        const auto idx = static_cast<std::size_t>(i);
        return i == 0 || recs_[idx - 1].key != recs_[idx].key;
      },
      key_heads_);
  key_heads_.push_back(static_cast<std::uint32_t>(count));

  // Combine: one pre-batch lookup per distinct key (read-only over the
  // buckets), then that key's ops replayed serially in working-set order.
  // Every op's observable output (Get/Update out, Erase found) is produced
  // here; what remains for the merge is one net write per key.
  net_present_.resize(static_cast<std::size_t>(ngroups));
  net_value_.resize(static_cast<std::size_t>(ngroups));
  rt::parallel_for(
      0, ngroups,
      [&](std::int64_t g) {
        const auto gi = static_cast<std::size_t>(g);
        const std::size_t lo = key_heads_[gi];
        const std::size_t hi = key_heads_[gi + 1];
        const Key key = recs_[lo].key;
        const Bucket& bucket = buckets_[recs_[lo].bucket];
        bool present = false;
        Value v = 0;
        for (const Entry& e : bucket) {
          if (e.key == key) {
            present = true;
            v = e.value;
            break;
          }
        }
        for (std::size_t i = lo; i < hi; ++i) {
          Op* op = recs_[i].op;
          switch (op->kind) {
            case Kind::Put:
              present = true;
              v = op->value;
              break;
            case Kind::Get:
              op->out = present ? std::optional<Value>(v) : std::nullopt;
              break;
            case Kind::Erase:
              op->found = present;
              present = false;
              break;
            case Kind::Update:
              if (!present) {
                present = true;
                v = 0;
              }
              v += op->value;
              op->out = v;
              break;
          }
        }
        net_present_[gi] = present ? 1 : 0;
        net_value_[gi] = v;
      },
      /*grain=*/1);

  // Merge: group the distinct keys by bucket (scan over group heads) and
  // apply each bucket's net effects with one search per key.  Distinct
  // bucket groups touch disjoint buckets.
  const std::int64_t nbgroups = par::pack_indices(
      ngroups,
      [&](std::int64_t g) {
        const auto gi = static_cast<std::size_t>(g);
        return g == 0 ||
               recs_[key_heads_[gi - 1]].bucket != recs_[key_heads_[gi]].bucket;
      },
      bucket_heads_);
  bucket_heads_.push_back(static_cast<std::uint32_t>(ngroups));

  std::vector<std::int64_t> delta(static_cast<std::size_t>(nbgroups), 0);
  rt::parallel_for(
      0, nbgroups,
      [&](std::int64_t bg) {
        const auto bgi = static_cast<std::size_t>(bg);
        Bucket& bucket =
            buckets_[recs_[key_heads_[bucket_heads_[bgi]]].bucket];
        const std::int64_t before = static_cast<std::int64_t>(bucket.size());
        for (std::uint32_t g = bucket_heads_[bgi]; g < bucket_heads_[bgi + 1];
             ++g) {
          const Key key = recs_[key_heads_[g]].key;
          auto it = std::find_if(bucket.begin(), bucket.end(),
                                 [&](const Entry& e) { return e.key == key; });
          if (net_present_[g]) {
            if (it != bucket.end()) {
              it->value = net_value_[g];
            } else {
              bucket.push_back(Entry{key, net_value_[g]});
            }
          } else if (it != bucket.end()) {
            *it = bucket.back();
            bucket.pop_back();
          }
        }
        delta[bgi] = static_cast<std::int64_t>(bucket.size()) - before;
      },
      /*grain=*/1);

  const std::int64_t total = par::reduce<std::int64_t>(
      nbgroups, [&](std::int64_t i) { return delta[static_cast<std::size_t>(i)]; },
      [](std::int64_t a, std::int64_t b) { return a + b; }, 0);
  size_ = static_cast<std::size_t>(static_cast<std::int64_t>(size_) + total);
  maybe_resize();
}

void BatchedHashMap::maybe_resize() {
  if (size_ <= buckets_.size() * 2) return;
  std::size_t nbuckets = buckets_.size();
  while (size_ > nbuckets * 2) nbuckets *= 2;

  std::vector<Bucket> fresh(nbuckets);
  // Rehash: each new bucket pulls from the old buckets that can map to it.
  // With power-of-two sizing, old bucket b maps to new buckets b + k*old_n,
  // so new bucket j draws only from old bucket j & (old_n - 1): each new
  // bucket reads one old bucket, and distinct new buckets write disjointly.
  const std::size_t old_n = buckets_.size();
  rt::parallel_for(
      0, static_cast<std::int64_t>(nbuckets),
      [&](std::int64_t j) {
        const auto nj = static_cast<std::size_t>(j);
        const Bucket& src = buckets_[nj & (old_n - 1)];
        for (const Entry& e : src) {
          if (bucket_of(e.key, nbuckets) == nj) fresh[nj].push_back(e);
        }
      },
      /*grain=*/1);
  buckets_ = std::move(fresh);
}

}  // namespace batcher::ds
