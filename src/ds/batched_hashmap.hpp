// Batched hash map: chained buckets with sort-merge batch application.
//
// The BOP sorts the batch by (bucket, key, working-set
// index), scan-packs the distinct-key groups, and runs a per-key combine
// pass in parallel: one pre-batch lookup per distinct key, then that key's
// ops replayed serially in working-set order (so Get/Update results and
// last-writer/delta-combining semantics are exact) folding into a single net
// effect.  A second scan groups keys by bucket and applies the net effects
// with one search per distinct key.  Operations on different keys commute,
// so per-key combining preserves the observable working-set-order semantics
// — the strongest of the batched structures here — at W(n) = O(n) expected
// work and s(n) = O(lg n + max same-key run + max keys-per-bucket) span.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"

namespace batcher::ds {

class BatchedHashMap final : public BatchedStructure {
 public:
  using Key = std::int64_t;
  using Value = std::int64_t;

  enum class Kind : std::uint8_t { Put, Get, Erase, Update };

  struct Op : OpRecordBase {
    Kind kind = Kind::Put;
    Key key = 0;
    Value value = 0;               // Put argument / Update delta
    std::optional<Value> out;      // Get result / Update post-value
    bool found = false;            // Erase hit
  };

  explicit BatchedHashMap(rt::Scheduler& sched);

  BatchedHashMap(const BatchedHashMap&) = delete;
  BatchedHashMap& operator=(const BatchedHashMap&) = delete;

  // --- blocking, implicitly batched API ---
  void put(Key key, Value value);
  std::optional<Value> get(Key key);
  bool erase(Key key);
  // Read-modify-write: adds `delta` to the entry (inserting 0 first if
  // absent) and returns the new value.  Histogram building in one op.
  Value update_add(Key key, Value delta);

  // --- unsynchronized API (outside runs) ---
  void put_unsafe(Key key, Value value);
  std::optional<Value> get_unsafe(Key key) const;
  std::size_t size_unsafe() const { return size_; }
  std::size_t bucket_count_unsafe() const { return buckets_.size(); }

  bool check_invariants() const;

  Batcher& batcher() { return batcher_; }

  void run_batch(OpRecordBase* const* ops, std::size_t count) override;

 private:
  struct Entry {
    Key key;
    Value value;
  };
  using Bucket = std::vector<Entry>;

  // Batch record, ordered (bucket, key, working-set index) so one
  // sort yields both the per-key combine groups and the per-bucket apply
  // groups.
  struct SortRec {
    std::uint64_t bucket;
    Key key;
    std::uint32_t ws;
    Op* op;

    bool operator<(const SortRec& o) const {
      if (bucket != o.bucket) return bucket < o.bucket;
      if (key != o.key) return key < o.key;
      return ws < o.ws;
    }
  };

  std::size_t bucket_of(Key key, std::size_t nbuckets) const;
  void maybe_resize();

  std::vector<Bucket> buckets_;
  std::size_t size_ = 0;

  std::vector<SortRec> recs_;
  std::vector<std::uint32_t> key_heads_, bucket_heads_;
  std::vector<std::uint8_t> net_present_;
  std::vector<Value> net_value_;
  Batcher batcher_;
};

}  // namespace batcher::ds
