#include "ds/batched_wbtree.hpp"

#include <algorithm>

#include "parallel/scan.hpp"
#include "runtime/api.hpp"
#include "support/config.hpp"

namespace batcher::ds {

namespace {

// Below this many nodes build_range recurses sequentially: spawning a task
// per tiny subtree would drown the win.
constexpr std::int64_t kParallelCutoff = 512;

// The bulk sort-merge passes recurse over (subtree, key-range) pairs whose
// sizes shrink geometrically; a lower cutoff than build_range's keeps the
// measured span of batch-sized merges sublinear while still amortizing
// spawn overhead over ~a hundred nodes of serial work.
constexpr std::int64_t kBulkParallelCutoff = 96;

using TaggedKey = prep::Tagged<BatchedWBTree::Key>;

}  // namespace

BatchedWBTree::BatchedWBTree(rt::Scheduler& sched)
    : arenas_(sched.num_workers() + 1), batcher_(sched, *this) {}

batcher::Arena& BatchedWBTree::local_arena() {
  const rt::Worker* w = rt::current_worker();
  return arenas_[w == nullptr ? 0 : static_cast<std::size_t>(w->id()) + 1];
}

// ---------------------------------------------------------------------------
// Node helpers and rotations.
// ---------------------------------------------------------------------------

BatchedWBTree::Node* BatchedWBTree::make_node(Node* l, Key k, Node* r) {
  Node* n = static_cast<Node*>(local_arena().allocate(sizeof(Node)));
  n->key = k;
  n->left = l;
  n->right = r;
  n->size = 1 + tsize(l) + tsize(r);
  return n;
}

BatchedWBTree::Node* BatchedWBTree::update(Node* t) {
  t->size = 1 + tsize(t->left) + tsize(t->right);
  return t;
}

BatchedWBTree::Node* BatchedWBTree::rotate_left(Node* t) {
  Node* r = t->right;
  t->right = r->left;
  r->left = t;
  update(t);
  return update(r);
}

BatchedWBTree::Node* BatchedWBTree::rotate_right(Node* t) {
  Node* l = t->left;
  t->left = l->right;
  l->right = t;
  update(t);
  return update(l);
}

// Adams-style rebalance after t->right grew (Δ = 3, Γ = 2 on weights).
BatchedWBTree::Node* BatchedWBTree::balance_right_heavy(Node* t) {
  if (weight(t->right) <= 3 * weight(t->left)) return t;
  Node* r = t->right;
  if (weight(r->left) < 2 * weight(r->right)) {
    return rotate_left(t);
  }
  t->right = rotate_right(r);
  return rotate_left(t);
}

BatchedWBTree::Node* BatchedWBTree::balance_left_heavy(Node* t) {
  if (weight(t->left) <= 3 * weight(t->right)) return t;
  Node* l = t->left;
  if (weight(l->right) < 2 * weight(l->left)) {
    return rotate_right(t);
  }
  t->left = rotate_left(l);
  return rotate_right(t);
}

// ---------------------------------------------------------------------------
// Join-based primitives.
// ---------------------------------------------------------------------------

BatchedWBTree::Node* BatchedWBTree::join(Node* l, Key k, Node* r) {
  if (weight(l) > 3 * weight(r)) {
    // Descend l's right spine until the pieces balance, fixing on unwind.
    l->right = join(l->right, k, r);
    update(l);
    return balance_right_heavy(l);
  }
  if (weight(r) > 3 * weight(l)) {
    r->left = join(l, k, r->left);
    update(r);
    return balance_left_heavy(r);
  }
  return make_node(l, k, r);
}

BatchedWBTree::Node* BatchedWBTree::split_last(Node* t, Key* out_key) {
  if (t->right == nullptr) {
    *out_key = t->key;
    return t->left;
  }
  t->right = split_last(t->right, out_key);
  update(t);
  return balance_left_heavy(t);
}

BatchedWBTree::Node* BatchedWBTree::join2(Node* l, Node* r) {
  if (l == nullptr) return r;
  if (r == nullptr) return l;
  Key k;
  l = split_last(l, &k);
  return join(l, k, r);
}

// Merge the sorted, duplicate-free, all-absent keys straight into `t`: one
// binary search splits the key range around t->key, both sides recurse in
// parallel, and `join` rebalances on the way up.  No batch tree is
// materialized.
BatchedWBTree::Node* BatchedWBTree::bulk_insert(Node* t, const Key* keys,
                                                std::int64_t n) {
  if (n == 0) return t;
  if (t == nullptr) return build_range(keys, n);
  const std::int64_t k =
      std::lower_bound(keys, keys + n, t->key) - keys;
  Node* l = nullptr;
  Node* r = nullptr;
  if (tsize(t) + n > kBulkParallelCutoff) {
    rt::parallel_invoke([&] { l = bulk_insert(t->left, keys, k); },
                        [&] { r = bulk_insert(t->right, keys + k, n - k); });
  } else {
    l = bulk_insert(t->left, keys, k);
    r = bulk_insert(t->right, keys + k, n - k);
  }
  return join(l, t->key, r);
}

// Dual bulk pass: drop every key of the sorted array found in `t`.
BatchedWBTree::Node* BatchedWBTree::bulk_erase(Node* t, const Key* keys,
                                               std::int64_t n) {
  if (n == 0 || t == nullptr) return t;
  const std::int64_t k =
      std::lower_bound(keys, keys + n, t->key) - keys;
  const bool hit = k < n && keys[k] == t->key;
  const Key* rkeys = keys + k + (hit ? 1 : 0);
  const std::int64_t rn = n - k - (hit ? 1 : 0);
  Node* l = nullptr;
  Node* r = nullptr;
  if (tsize(t) + n > kBulkParallelCutoff) {
    rt::parallel_invoke([&] { l = bulk_erase(t->left, keys, k); },
                        [&] { r = bulk_erase(t->right, rkeys, rn); });
  } else {
    l = bulk_erase(t->left, keys, k);
    r = bulk_erase(t->right, rkeys, rn);
  }
  return hit ? join2(l, r) : join(l, t->key, r);
}

BatchedWBTree::Node* BatchedWBTree::build_range(const Key* keys,
                                                std::int64_t n) {
  if (n <= 0) return nullptr;
  const std::int64_t mid = n / 2;
  if (n > kParallelCutoff) {
    Node* l = nullptr;
    Node* r = nullptr;
    rt::parallel_invoke([&] { l = build_range(keys, mid); },
                        [&] { r = build_range(keys + mid + 1, n - mid - 1); });
    return make_node(l, keys[mid], r);
  }
  return make_node(build_range(keys, mid), keys[mid],
                   build_range(keys + mid + 1, n - mid - 1));
}

// ---------------------------------------------------------------------------
// Read-only queries.
// ---------------------------------------------------------------------------

bool BatchedWBTree::contains_in(const Node* t, Key k) const {
  while (t != nullptr) {
    if (k == t->key) return true;
    t = k < t->key ? t->left : t->right;
  }
  return false;
}

std::int64_t BatchedWBTree::rank_in(const Node* t, Key k) const {
  std::int64_t before = 0;  // #keys strictly smaller than k
  while (t != nullptr) {
    if (k <= t->key) {
      t = t->left;
    } else {
      before += tsize(t->left) + 1;
      t = t->right;
    }
  }
  return before;
}

const BatchedWBTree::Node* BatchedWBTree::select_in(const Node* t,
                                                    std::int64_t i) const {
  while (t != nullptr) {
    const std::int64_t left = tsize(t->left);
    if (i < left) {
      t = t->left;
    } else if (i == left) {
      return t;
    } else {
      i -= left + 1;
      t = t->right;
    }
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Blocking API.
// ---------------------------------------------------------------------------

bool BatchedWBTree::insert(Key key) {
  Op op;
  op.kind = Kind::Insert;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

bool BatchedWBTree::erase(Key key) {
  Op op;
  op.kind = Kind::Erase;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

bool BatchedWBTree::contains(Key key) {
  Op op;
  op.kind = Kind::Contains;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

std::int64_t BatchedWBTree::rank(Key key) {
  Op op;
  op.kind = Kind::Rank;
  op.key = key;
  batcher_.batchify(op);
  return op.count;
}

std::optional<BatchedWBTree::Key> BatchedWBTree::select(std::int64_t index) {
  Op op;
  op.kind = Kind::Select;
  op.count = index;
  batcher_.batchify(op);
  return op.out_key;
}

std::int64_t BatchedWBTree::range_count(Key lo, Key hi) {
  Op op;
  op.kind = Kind::RangeCount;
  op.key = lo;
  op.key2 = hi;
  batcher_.batchify(op);
  return op.count;
}

bool BatchedWBTree::insert_unsafe(Key key) {
  Op op;
  op.kind = Kind::Insert;
  op.key = key;
  OpRecordBase* ops[1] = {&op};
  run_batch(ops, 1);
  return op.found;
}

bool BatchedWBTree::contains_unsafe(Key key) const {
  return contains_in(root_, key);
}

void BatchedWBTree::bulk_build_unsafe(std::span<const Key> sorted_unique_keys) {
  BATCHER_ASSERT(root_ == nullptr, "bulk_build_unsafe requires an empty tree");
  root_ = build_range(sorted_unique_keys.data(),
                      static_cast<std::int64_t>(sorted_unique_keys.size()));
  size_ = sorted_unique_keys.size();
}

int BatchedWBTree::height_unsafe() const {
  int h = 0;
  for (const Node* t = root_; t != nullptr;) {
    ++h;
    t = tsize(t->left) >= tsize(t->right) ? t->left : t->right;
  }
  return h;  // depth along the heavy path bounds the height within O(1)
}

// ---------------------------------------------------------------------------
// BOP.
// ---------------------------------------------------------------------------

void BatchedWBTree::run_batch(OpRecordBase* const* ops, std::size_t count) {
  read_ops_.clear();
  erase_ops_.clear();
  insert_ops_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Op* op = static_cast<Op*>(ops[i]);
    switch (op->kind) {
      case Kind::Insert: insert_ops_.push_back(op); break;
      case Kind::Erase: erase_ops_.push_back(op); break;
      default: read_ops_.push_back(op); break;
    }
  }
  // Phase order: reads on the pre-batch tree, then erases, then inserts.
  if (!read_ops_.empty()) apply_reads(read_ops_);
  if (!erase_ops_.empty()) apply_erases(erase_ops_);
  if (!insert_ops_.empty()) apply_inserts(insert_ops_);
}

void BatchedWBTree::apply_reads(const std::vector<Op*>& ops) {
  rt::parallel_for(
      0, static_cast<std::int64_t>(ops.size()),
      [&](std::int64_t i) {
        Op* op = ops[static_cast<std::size_t>(i)];
        switch (op->kind) {
          case Kind::Contains:
            op->found = contains_in(root_, op->key);
            break;
          case Kind::Rank:
            op->count = rank_in(root_, op->key);
            break;
          case Kind::Select: {
            const Node* n = select_in(root_, op->count);
            op->out_key = n != nullptr ? std::optional<Key>(n->key)
                                       : std::nullopt;
            break;
          }
          case Kind::RangeCount: {
            // #keys <= hi minus #keys < lo.
            const std::int64_t below_hi =
                rank_in(root_, op->key2) +
                (contains_in(root_, op->key2) ? 1 : 0);
            op->count = below_hi - rank_in(root_, op->key);
            break;
          }
          default:
            break;
        }
      },
      /*grain=*/1);
}

void BatchedWBTree::apply_erases(std::vector<Op*>& ops) {
  std::vector<TaggedKey>& keys = batch_keys_;
  keys.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    keys[i] = TaggedKey{ops[i]->key, static_cast<std::uint32_t>(i)};
  }
  prep::sort_tagged(keys);

  // Pre-pass: resolve found flags (first op on a key wins) on the pre-erase
  // tree, and flag the keys actually present.
  flag_scratch_.assign(keys.size(), 0);
  rt::parallel_for(
      0, static_cast<std::int64_t>(keys.size()),
      [&](std::int64_t i) {
        const auto idx = static_cast<std::size_t>(i);
        Op* op = ops[keys[idx].ws];
        if (idx > 0 && keys[idx].key == keys[idx - 1].key) {
          op->found = false;
          return;
        }
        op->found = contains_in(root_, keys[idx].key);
        flag_scratch_[idx] = op->found ? 1 : 0;
      },
      /*grain=*/1);

  // Scan-compact the present keys and merge them out of the tree
  // directly (no intermediate batch tree, no serial phase).
  const std::int64_t m = par::pack_indices(
      static_cast<std::int64_t>(keys.size()),
      [&](std::int64_t i) {
        return flag_scratch_[static_cast<std::size_t>(i)] != 0;
      },
      live_index_);
  if (m == 0) return;
  key_scratch_.resize(static_cast<std::size_t>(m));
  rt::parallel_for(
      0, m,
      [&](std::int64_t j) {
        const auto ji = static_cast<std::size_t>(j);
        key_scratch_[ji] = keys[live_index_[ji]].key;
      },
      /*grain=*/1);
  root_ = bulk_erase(root_, key_scratch_.data(), m);
  size_ -= static_cast<std::size_t>(m);
}

void BatchedWBTree::apply_inserts(std::vector<Op*>& ops) {
  std::vector<TaggedKey>& keys = batch_keys_;
  keys.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    keys[i] = TaggedKey{ops[i]->key, static_cast<std::uint32_t>(i)};
  }
  prep::sort_tagged(keys);

  flag_scratch_.assign(keys.size(), 0);
  rt::parallel_for(
      0, static_cast<std::int64_t>(keys.size()),
      [&](std::int64_t i) {
        const auto idx = static_cast<std::size_t>(i);
        Op* op = ops[keys[idx].ws];
        if (idx > 0 && keys[idx].key == keys[idx - 1].key) {
          op->found = false;  // duplicate within the batch
          return;
        }
        op->found = !contains_in(root_, keys[idx].key);
        flag_scratch_[idx] = op->found ? 1 : 0;
      },
      /*grain=*/1);

  // Scan-compact the fresh keys and merge the sorted array into the tree in
  // one parallel divide-and-conquer pass.
  const std::int64_t m = par::pack_indices(
      static_cast<std::int64_t>(keys.size()),
      [&](std::int64_t i) {
        return flag_scratch_[static_cast<std::size_t>(i)] != 0;
      },
      live_index_);
  if (m == 0) return;
  key_scratch_.resize(static_cast<std::size_t>(m));
  rt::parallel_for(
      0, m,
      [&](std::int64_t j) {
        const auto ji = static_cast<std::size_t>(j);
        key_scratch_[ji] = keys[live_index_[ji]].key;
      },
      /*grain=*/1);
  root_ = bulk_insert(root_, key_scratch_.data(), m);
  size_ += static_cast<std::size_t>(m);
}

// ---------------------------------------------------------------------------
// Invariants.
// ---------------------------------------------------------------------------

bool BatchedWBTree::check_node(const Node* t, Key* min_key,
                               Key* max_key) const {
  if (t == nullptr) return true;
  if (t->size != 1 + tsize(t->left) + tsize(t->right)) return false;
  // Δ = 3 weight balance.
  if (weight(t->left) > 3 * weight(t->right)) return false;
  if (weight(t->right) > 3 * weight(t->left)) return false;
  Key lmin = t->key, lmax = t->key, rmin = t->key, rmax = t->key;
  if (t->left != nullptr) {
    if (!check_node(t->left, &lmin, &lmax)) return false;
    if (!(lmax < t->key)) return false;
  }
  if (t->right != nullptr) {
    if (!check_node(t->right, &rmin, &rmax)) return false;
    if (!(t->key < rmin)) return false;
  }
  *min_key = lmin;
  *max_key = rmax;
  return true;
}

bool BatchedWBTree::check_invariants() const {
  if (root_ == nullptr) return size_ == 0;
  if (static_cast<std::size_t>(root_->size) != size_) return false;
  Key mn, mx;
  return check_node(root_, &mn, &mx);
}

}  // namespace batcher::ds
