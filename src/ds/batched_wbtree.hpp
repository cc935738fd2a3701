// Batched weight-balanced search tree with join-based bulk updates.
//
// The paper's related work (§6) points at batched search trees with bulk
// updates (weight-balanced B-trees [14], red-black trees [16]).  This module
// implements the modern form of that idea: a weight-balanced binary tree
// whose batch operations are join-based bulk merges (Adams-style `join`;
// see Blelloch, Ferizovic & Sun, "Just Join for Parallel Ordered Sets",
// SPAA 2016 — itself the lineage of [14]):
//
//   * a batch of x inserts:  sort + scan-compact the fresh keys, then merge
//     the sorted array straight into the tree: split the key range by the
//     root's key (one binary search), recurse into both subtrees in
//     parallel, and rebalance with `join` on the way up — O(x·lg(n/x + 1))
//     work, polylog span;
//   * a batch of x erases:   the dual bulk pass dropping hit keys via
//     `join2`, same bounds;
//   * reads (contains / rank / select / range-count) are embarrassingly
//     parallel searches over the pre-batch tree.
//
// Balance scheme: Adams-style weights (w = size + 1) with Δ = 3, Γ = 2 and
// single/double rotations along the join spine.  `check_invariants` verifies
// the balance bound, size fields, and key order after every test batch.
//
// Per Invariant 1 there is no synchronization anywhere in this file.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"
#include "ds/batch_prep.hpp"
#include "support/arena.hpp"

namespace batcher::ds {

class BatchedWBTree final : public BatchedStructure {
 public:
  using Key = std::int64_t;

  enum class Kind : std::uint8_t {
    Insert,
    Erase,
    Contains,
    Rank,        // #keys strictly smaller than `key` -> count
    Select,      // i-th smallest (0-based) -> out_key
    RangeCount,  // #keys in [key, key2] -> count
  };

  struct Op : OpRecordBase {
    Kind kind = Kind::Insert;
    Key key = 0;
    Key key2 = 0;                     // RangeCount upper bound
    bool found = false;               // Insert/Erase/Contains result
    std::int64_t count = 0;           // Rank / RangeCount result
    std::optional<Key> out_key;       // Select result
  };

  explicit BatchedWBTree(rt::Scheduler& sched);

  BatchedWBTree(const BatchedWBTree&) = delete;
  BatchedWBTree& operator=(const BatchedWBTree&) = delete;

  // --- blocking, implicitly batched API ---
  bool insert(Key key);
  bool erase(Key key);
  bool contains(Key key);
  std::int64_t rank(Key key);
  std::optional<Key> select(std::int64_t index);
  std::int64_t range_count(Key lo, Key hi);

  // --- unsynchronized API (outside runs) ---
  bool insert_unsafe(Key key);
  bool contains_unsafe(Key key) const;
  void bulk_build_unsafe(std::span<const Key> sorted_unique_keys);
  std::size_t size_unsafe() const { return size_; }
  int height_unsafe() const;

  bool check_invariants() const;

  Batcher& batcher() { return batcher_; }

  void run_batch(OpRecordBase* const* ops, std::size_t count) override;

 private:
  struct Node {
    Key key;
    std::int64_t size;  // subtree size
    Node* left;
    Node* right;
  };

  static std::int64_t tsize(const Node* t) { return t == nullptr ? 0 : t->size; }
  static std::int64_t weight(const Node* t) { return tsize(t) + 1; }

  Node* make_node(Node* l, Key k, Node* r);
  Node* update(Node* t);  // recompute size of t in place

  Node* rotate_left(Node* t);
  Node* rotate_right(Node* t);
  Node* balance_right_heavy(Node* t);  // t->right grew
  Node* balance_left_heavy(Node* t);   // t->left grew

  Node* join(Node* l, Key k, Node* r);
  Node* join2(Node* l, Node* r);
  Node* split_last(Node* t, Key* out_key);  // removes the maximum

  // Bulk sort-merge passes: merge a sorted array of keys into / out of the
  // tree directly, splitting the array by the root key and recursing into
  // both subtrees in parallel, joining (and thereby rebalancing) on unwind.
  Node* bulk_insert(Node* t, const Key* keys, std::int64_t n);
  Node* bulk_erase(Node* t, const Key* keys, std::int64_t n);

  Node* build_range(const Key* keys, std::int64_t n);

  bool contains_in(const Node* t, Key k) const;
  std::int64_t rank_in(const Node* t, Key k) const;
  const Node* select_in(const Node* t, std::int64_t i) const;

  void apply_reads(const std::vector<Op*>& ops);
  void apply_erases(std::vector<Op*>& ops);
  void apply_inserts(std::vector<Op*>& ops);

  bool check_node(const Node* t, Key* min_key, Key* max_key) const;

  Node* root_ = nullptr;
  std::size_t size_ = 0;
  // One bump-arena shard per worker (index id+1) plus one for non-worker
  // callers (index 0): the bulk sort-merge passes call make_node from
  // concurrent tasks and the arena is deliberately unsynchronized, so each
  // task must bump its own thread's shard.  Nodes from every shard live
  // until the tree dies, so wholesale release is unchanged.
  std::vector<Arena> arenas_;
  Arena& local_arena();

  std::vector<Op*> read_ops_, erase_ops_, insert_ops_;  // batch scratch
  std::vector<prep::Tagged<Key>> batch_keys_;  // the phase's sorted keys
  std::vector<std::uint8_t> flag_scratch_;
  std::vector<std::uint32_t> live_index_;
  std::vector<Key> key_scratch_;
  Batcher batcher_;
};

}  // namespace batcher::ds
