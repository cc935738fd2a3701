// Batched priority queue.
//
// The paper's introduction motivates batched data structures with parallel
// priority queues used in shortest-path algorithms [8, 12, 13, 32]; this is
// the implicit-batching counterpart.  The heap is a pairing heap with O(1)
// meld: a batch's inserts are melded together by par::reduce (O(x) work;
// one serial leaf up to the scan cutoff, blocks in parallel above it) and
// attached to the root in O(1);
// extract-mins then pop sequentially (O(lg n) amortized each).
//
// Batch semantics: all INSERTs apply first, then the k EXTRACTMINs return the
// k smallest elements in ascending order, assigned in working-set order.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"
#include "support/arena.hpp"

namespace batcher::ds {

class BatchedPriorityQueue final : public BatchedStructure {
 public:
  using Key = std::int64_t;

  enum class Kind : std::uint8_t { Insert, ExtractMin };

  struct Op : OpRecordBase {
    Kind kind = Kind::Insert;
    Key key = 0;                // Insert argument
    std::optional<Key> out;     // ExtractMin result
  };

  explicit BatchedPriorityQueue(rt::Scheduler& sched);

  BatchedPriorityQueue(const BatchedPriorityQueue&) = delete;
  BatchedPriorityQueue& operator=(const BatchedPriorityQueue&) = delete;

  // --- blocking, implicitly batched API ---
  void insert(Key key);
  std::optional<Key> extract_min();

  // --- unsynchronized API (outside runs) ---
  void insert_unsafe(Key key);
  std::optional<Key> extract_min_unsafe();
  std::optional<Key> peek_min_unsafe() const;
  std::size_t size_unsafe() const { return size_; }

  // Heap-order self-check for tests.
  bool check_invariants() const;

  Batcher& batcher() { return batcher_; }

  void run_batch(OpRecordBase* const* ops, std::size_t count) override;

 private:
  struct Node {
    Key key;
    Node* child;    // leftmost child
    Node* sibling;  // next sibling (right)
  };

  Node* make_node(Key key);
  void recycle(Node* node);
  static Node* meld(Node* a, Node* b);
  static Node* combine_siblings(Node* first);  // two-pass pairing

  Node* root_ = nullptr;
  std::size_t size_ = 0;
  Arena arena_;
  Node* free_list_ = nullptr;

  std::vector<Op*> insert_ops_, extract_ops_;  // batch scratch
  Batcher batcher_;
};

}  // namespace batcher::ds
