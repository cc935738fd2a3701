#include "ds/batched_pq.hpp"

#include <utility>

#include "parallel/scan.hpp"
#include "runtime/api.hpp"
#include "support/config.hpp"

namespace batcher::ds {

BatchedPriorityQueue::BatchedPriorityQueue(rt::Scheduler& sched)
    : batcher_(sched, *this) {}

BatchedPriorityQueue::Node* BatchedPriorityQueue::make_node(Key key) {
  Node* n;
  if (free_list_ != nullptr) {
    n = free_list_;
    free_list_ = n->sibling;
  } else {
    n = static_cast<Node*>(arena_.allocate(sizeof(Node)));
  }
  n->key = key;
  n->child = nullptr;
  n->sibling = nullptr;
  return n;
}

void BatchedPriorityQueue::recycle(Node* node) {
  node->sibling = free_list_;
  free_list_ = node;
}

BatchedPriorityQueue::Node* BatchedPriorityQueue::meld(Node* a, Node* b) {
  if (a == nullptr) return b;
  if (b == nullptr) return a;
  if (b->key < a->key) std::swap(a, b);
  // b becomes a's leftmost child.
  b->sibling = a->child;
  a->child = b;
  return a;
}

BatchedPriorityQueue::Node* BatchedPriorityQueue::combine_siblings(Node* first) {
  if (first == nullptr) return nullptr;
  // Two-pass pairing: left-to-right pairwise melds, then right-to-left fold.
  std::vector<Node*> pairs;
  while (first != nullptr) {
    Node* a = first;
    Node* b = first->sibling;
    first = (b != nullptr) ? b->sibling : nullptr;
    a->sibling = nullptr;
    if (b != nullptr) b->sibling = nullptr;
    pairs.push_back(meld(a, b));
  }
  Node* result = pairs.back();
  for (std::size_t i = pairs.size() - 1; i-- > 0;) {
    result = meld(pairs[i], result);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Blocking API.
// ---------------------------------------------------------------------------

void BatchedPriorityQueue::insert(Key key) {
  Op op;
  op.kind = Kind::Insert;
  op.key = key;
  batcher_.batchify(op);
}

std::optional<BatchedPriorityQueue::Key> BatchedPriorityQueue::extract_min() {
  Op op;
  op.kind = Kind::ExtractMin;
  batcher_.batchify(op);
  return op.out;
}

// ---------------------------------------------------------------------------
// Unsynchronized API.
// ---------------------------------------------------------------------------

void BatchedPriorityQueue::insert_unsafe(Key key) {
  root_ = meld(root_, make_node(key));
  ++size_;
}

std::optional<BatchedPriorityQueue::Key>
BatchedPriorityQueue::extract_min_unsafe() {
  if (root_ == nullptr) return std::nullopt;
  Node* old = root_;
  const Key key = old->key;
  root_ = combine_siblings(old->child);
  recycle(old);
  --size_;
  return key;
}

std::optional<BatchedPriorityQueue::Key>
BatchedPriorityQueue::peek_min_unsafe() const {
  if (root_ == nullptr) return std::nullopt;
  return root_->key;
}

bool BatchedPriorityQueue::check_invariants() const {
  // Heap order: every child's key >= its parent's; node count matches size_.
  std::size_t count = 0;
  std::vector<const Node*> stack;
  if (root_ != nullptr) stack.push_back(root_);
  while (!stack.empty()) {
    const Node* n = stack.back();
    stack.pop_back();
    ++count;
    for (const Node* c = n->child; c != nullptr; c = c->sibling) {
      if (c->key < n->key) return false;
      stack.push_back(c);
    }
  }
  return count == size_;
}

// ---------------------------------------------------------------------------
// BOP.
// ---------------------------------------------------------------------------

void BatchedPriorityQueue::run_batch(OpRecordBase* const* ops,
                                     std::size_t count) {
  insert_ops_.clear();
  extract_ops_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Op* op = static_cast<Op*>(ops[i]);
    (op->kind == Kind::Insert ? insert_ops_ : extract_ops_).push_back(op);
  }

  // INSERT phase: build the batch heap with a meld reduction (meld is O(1),
  // so the reduction is O(x) work), then one meld into the main heap.
  if (!insert_ops_.empty()) {
    // Allocation is sequential (the arena/free list are single-threaded by
    // design); only the meld reduction may run in parallel, and each meld
    // touches a disjoint pair of nodes.
    std::vector<Node*> nodes(insert_ops_.size());
    for (std::size_t i = 0; i < insert_ops_.size(); ++i) {
      nodes[i] = make_node(insert_ops_[i]->key);
    }
    Node* batch_heap = par::reduce<Node*>(
        static_cast<std::int64_t>(nodes.size()),
        [&](std::int64_t i) { return nodes[static_cast<std::size_t>(i)]; },
        [](Node* a, Node* b) { return meld(a, b); },
        static_cast<Node*>(nullptr));
    root_ = meld(root_, batch_heap);
    size_ += insert_ops_.size();
  }

  // EXTRACTMIN phase: sequential pops, ascending, in working-set order.
  for (Op* op : extract_ops_) {
    op->out = extract_min_unsafe();
  }
}

}  // namespace batcher::ds
