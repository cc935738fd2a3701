#include "ds/batched_skiplist.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "parallel/prefix_sum.hpp"
#include "parallel/scan.hpp"
#include "runtime/api.hpp"
#include "support/config.hpp"

namespace batcher::ds {

namespace {

using TaggedKey = prep::Tagged<BatchedSkipList::Key>;

// Grain of the per-node loops of carve, splice, victim marking and unlink.
// Each element costs a few ns, so a fork only pays once a leaf holds a few
// hundred of them: a fig5_insert batch (~150 new keys) runs each pass as
// one leaf, while a batch of thousands still forks (DESIGN.md §16).
constexpr std::int64_t kLeafGrain = 256;

// SplitMix64-style mixer: per-batch seed + record index -> height bits, so a
// batch can draw all heights in parallel while staying deterministic for a
// given (seed, batch) pair.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

BatchedSkipList::BatchedSkipList(rt::Scheduler& sched, std::uint64_t seed)
    : rng_(seed), batcher_(sched, *this) {
  head_ = allocate_node(/*key=*/0, kMaxHeight);
  for (int l = 0; l < kMaxHeight; ++l) head_->next[l] = Link{nullptr, kNoKey};
}

// Out of line on purpose: it keeps insert_unsafe's setup loop fast.  Over
// four 16-byte placements of insert_unsafe, a million ascending inserts took
// 0.111-0.144 s with the arena's bump path inlined and 0.099-0.119 s with
// this call (x86-64 Xeon, GCC 12 -O3).
[[gnu::noinline]] BatchedSkipList::Node* BatchedSkipList::allocate_node(
    Key key, int height) {
  const std::size_t bytes =
      sizeof(Node) + sizeof(Link) * static_cast<std::size_t>(height - 1);
  Node* node = static_cast<Node*>(arena_.allocate(bytes));
  node->key = key;
  node->height = height;
  node->erased = false;
  return node;
}

int BatchedSkipList::height_from_bits(std::uint64_t bits) {
  // Geometric with p = 1/2, capped.  Counting trailing ones of a uniform
  // word gives the same distribution in O(1).
  return std::min(kMaxHeight, 1 + std::countr_one(bits));
}

int BatchedSkipList::random_height() { return height_from_bits(rng_.next()); }

void BatchedSkipList::find_preds(Key key, Node** preds) const {
  Node* cur = head_;
  for (int l = kMaxHeight - 1; l >= 0; --l) {
    if (l < height_) {
      // The null test is redundant with kNoKey, but without it the
      // ascending setup loop of insert_unsafe ran 10-18% slower
      // (EXPERIMENTS.md BOP-links).
      while (cur->next[l].node != nullptr && cur->next[l].key < key) {
        cur = cur->next[l].node;
      }
    }
    preds[l] = cur;
  }
}

void BatchedSkipList::find_preds_group(int n, const Key* keys,
                                       Node** const* preds,
                                       Link* const* succs) const {
  // Per descent: `cur` is the predecessor found so far at `level`, and its
  // link there is already prefetched; level < 0 means done.
  struct Descent {
    Node* cur;
    int level;
  };
  Descent d[kGroup] = {};
  const int top = height_ - 1;
  for (int i = 0; i < n; ++i) {
    for (int l = kMaxHeight - 1; l > top; --l) {
      preds[i][l] = head_;
      if (succs != nullptr) succs[i][l] = head_->next[l];
    }
    d[i] = Descent{head_, top};
  }
  // One turn of a descent takes the down steps its current node decides on
  // its own, then one step right, which is the turn's only new node.
  for (int live = n; live > 0;) {
    for (int i = 0; i < n; ++i) {
      Descent& s = d[i];
      if (s.level < 0) continue;
      for (;;) {
        const Link link = s.cur->next[s.level];
        if (link.key < keys[i]) {
          s.cur = link.node;
          __builtin_prefetch(&s.cur->next[s.level]);
          break;
        }
        preds[i][s.level] = s.cur;
        if (succs != nullptr) succs[i][s.level] = link;
        if (--s.level < 0) {
          --live;
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Blocking (implicitly batched) API.
// ---------------------------------------------------------------------------

bool BatchedSkipList::insert(Key key) {
  Op op;
  op.kind = Kind::Insert;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

void BatchedSkipList::multi_insert(std::span<const Key> keys) {
  if (keys.empty()) return;
  Op op;
  op.kind = Kind::MultiInsert;
  op.keys = keys.data();
  op.num_keys = keys.size();
  batcher_.batchify(op);
}

bool BatchedSkipList::contains(Key key) {
  Op op;
  op.kind = Kind::Contains;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

bool BatchedSkipList::erase(Key key) {
  Op op;
  op.kind = Kind::Erase;
  op.key = key;
  batcher_.batchify(op);
  return op.found;
}

std::optional<BatchedSkipList::Key> BatchedSkipList::successor(Key probe) {
  Op op;
  op.kind = Kind::Successor;
  op.key = probe;
  batcher_.batchify(op);
  return op.out_key;
}

std::int64_t BatchedSkipList::range_count(Key lo, Key hi) {
  Op op;
  op.kind = Kind::RangeCount;
  op.key = lo;
  op.key2 = hi;
  batcher_.batchify(op);
  return op.count;
}

// ---------------------------------------------------------------------------
// Unsynchronized setup/inspection API.
// ---------------------------------------------------------------------------

// Pre-population calls this a million times in a row from one tight,
// cache-resident loop, whose speed depends on where its branches fall
// relative to 64-byte fetch boundaries: moving the function by 16 bytes
// changes setup time by up to 20%.  Without a fixed alignment any edit
// elsewhere in the library moves it; pinning its start makes the loop's
// layout a property of this function alone.
__attribute__((aligned(64))) bool BatchedSkipList::insert_unsafe(Key key) {
  Node* preds[kMaxHeight];
  find_preds(key, preds);
  const Link hit = preds[0]->next[0];
  if (hit.node != nullptr && hit.key == key) return false;
  const int h = random_height();
  Node* node = allocate_node(key, h);
  if (h > height_) height_ = h;
  for (int l = 0; l < h; ++l) {
    node->next[l] = preds[l]->next[l];
    preds[l]->next[l] = Link{node, key};
  }
  ++size_;
  return true;
}

bool BatchedSkipList::contains_unsafe(Key key) const {
  Node* preds[kMaxHeight];
  find_preds(key, preds);
  const Link hit = preds[0]->next[0];
  return hit.node != nullptr && hit.key == key;
}

bool BatchedSkipList::check_invariants() const {
  // Every reachable link, the head's included, caches its target's key.
  auto exact = [](const Link& link) {
    return link.key == (link.node != nullptr ? link.node->key : kNoKey);
  };
  for (int l = 0; l < kMaxHeight; ++l) {
    if (!exact(head_->next[l])) return false;
  }
  // Level 0 sorted and counted.
  std::size_t count = 0;
  for (Node* n = head_->next[0].node; n != nullptr; n = n->next[0].node) {
    ++count;
    for (int l = 0; l < n->height; ++l) {
      if (!exact(n->next[l])) return false;
    }
    if (n->next[0].node != nullptr && !(n->key < n->next[0].key)) return false;
  }
  if (count != size_) return false;
  // height_ is tight: its top level is in use (unless the list is empty)
  // and every level above it is empty.
  if (height_ > 1 && head_->next[height_ - 1].node == nullptr) return false;
  for (int l = height_; l < kMaxHeight; ++l) {
    if (head_->next[l].node != nullptr) return false;
  }
  // Every upper level is a sorted sublist of level 0.
  for (int l = 1; l < height_; ++l) {
    Node* lower = head_->next[0].node;
    for (Node* n = head_->next[l].node; n != nullptr; n = n->next[l].node) {
      if (n->height <= l) return false;
      while (lower != nullptr && lower->key < n->key) {
        lower = lower->next[0].node;
      }
      if (lower != n) return false;
      if (n->next[l].node != nullptr && !(n->key < n->next[l].key)) {
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// BOP.
// ---------------------------------------------------------------------------

void BatchedSkipList::run_batch(OpRecordBase* const* ops, std::size_t count) {
  contains_ops_.clear();
  erase_ops_.clear();
  insert_ops_.clear();
  multi_ops_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Op* op = static_cast<Op*>(ops[i]);
    switch (op->kind) {
      case Kind::Contains:
      case Kind::Successor:
      case Kind::RangeCount:
        contains_ops_.push_back(op);
        break;
      case Kind::Erase: erase_ops_.push_back(op); break;
      case Kind::Insert: insert_ops_.push_back(op); break;
      case Kind::MultiInsert: multi_ops_.push_back(op); break;
    }
  }
  // Documented phase order: reads (pre-state), erase, insert.
  if (!contains_ops_.empty()) apply_reads(contains_ops_);
  if (!erase_ops_.empty()) apply_erases(erase_ops_);
  if (!insert_ops_.empty() || !multi_ops_.empty()) {
    apply_inserts(insert_ops_, multi_ops_);
  }
}

void BatchedSkipList::apply_reads(std::vector<Op*>& ops) {
  const auto n = static_cast<std::int64_t>(ops.size());
  rt::parallel_for(
      0, (n + kGroup - 1) / kGroup,
      [&](std::int64_t g) {
        const std::int64_t lo = g * kGroup;
        const int count =
            static_cast<int>(std::min<std::int64_t>(kGroup, n - lo));
        Op* const* group = &ops[static_cast<std::size_t>(lo)];
        Key probes[kGroup] = {};
        Node* pred_rows[kGroup][kMaxHeight];  // filled by find_preds_group
        Node** preds[kGroup] = {};
        for (int i = 0; i < count; ++i) {
          probes[i] = group[i]->key;
          preds[i] = pred_rows[i];
        }
        find_preds_group(count, probes, preds, nullptr);
        for (int i = 0; i < count; ++i) {
          Op* op = group[i];
          // Link to the first node with key >= probe, on the pre-batch list.
          // Its cached key answers the point queries without loading it.
          const Link succ = preds[i][0]->next[0];
          switch (op->kind) {
            case Kind::Contains:
              op->found = succ.node != nullptr && succ.key == op->key;
              break;
            case Kind::Successor:
              op->out_key = succ.node != nullptr ? std::optional<Key>(succ.key)
                                                 : std::nullopt;
              break;
            case Kind::RangeCount: {
              std::int64_t c = 0;
              for (Link it = succ; it.node != nullptr && it.key <= op->key2;
                   it = it.node->next[0]) {
                ++c;
              }
              op->count = c;
              break;
            }
            default:
              break;
          }
        }
      },
      /*grain=*/1);
}

void BatchedSkipList::search_sorted(std::span<Op* const> ops,
                                    const std::vector<TaggedKey>& keys,
                                    bool inserting) {
  // Scratch grows but is never pre-cleared: every slot a later pass reads —
  // flags / victims for all keys, preds (and succs) for the distinct ones —
  // is written here, including explicit zeros for duplicates and misses, so
  // a serial O(n·lg n)-byte fill never lands on the critical path.
  const std::size_t nk = keys.size();
  if (pred_scratch_.size() < nk * kMaxHeight) {
    pred_scratch_.resize(nk * kMaxHeight);
  }
  if (inserting) {
    if (succ_scratch_.size() < nk * kMaxHeight) {
      succ_scratch_.resize(nk * kMaxHeight);
    }
    if (flag_scratch_.size() < nk) flag_scratch_.resize(nk);
  } else if (node_scratch_.size() < nk) {
    node_scratch_.resize(nk);
  }
  const auto num_groups = static_cast<std::int64_t>((nk + kGroup - 1) / kGroup);
  rt::parallel_for(
      0, num_groups,
      [&](std::int64_t g) {
        const std::size_t lo = static_cast<std::size_t>(g) * kGroup;
        const std::size_t hi = std::min(nk, lo + kGroup);
        // Only the first occurrence of a key searches; the duplicate test
        // looks at keys[idx - 1] even across a group boundary.
        int n = 0;
        std::size_t at[kGroup] = {};
        Key probes[kGroup] = {};
        Node** preds[kGroup] = {};
        Link* succs[kGroup] = {};
        for (std::size_t idx = lo; idx < hi; ++idx) {
          const std::uint32_t src = keys[idx].ws;
          Op* op = src < ops.size() ? ops[src] : nullptr;
          if (idx > 0 && keys[idx].key == keys[idx - 1].key) {
            if (op != nullptr) op->found = false;  // duplicate in the batch
            if (inserting) {
              flag_scratch_[idx] = 0;
            } else {
              node_scratch_[idx] = nullptr;
            }
            continue;
          }
          at[n] = idx;
          probes[n] = keys[idx].key;
          preds[n] = &pred_scratch_[idx * kMaxHeight];
          if (inserting) succs[n] = &succ_scratch_[idx * kMaxHeight];
          ++n;
        }
        find_preds_group(n, probes, preds, inserting ? succs : nullptr);
        // The list is untouched until step 3, so preds[0]->next[0] is the
        // exact pre-batch candidate, and its cached key decides presence.
        for (int i = 0; i < n; ++i) {
          const std::size_t idx = at[i];
          const std::uint32_t src = keys[idx].ws;
          Op* op = src < ops.size() ? ops[src] : nullptr;
          const Link hit = preds[i][0]->next[0];
          const bool present = hit.node != nullptr && hit.key == probes[i];
          if (inserting) {
            flag_scratch_[idx] = present ? 0 : 1;
          } else {
            node_scratch_[idx] = present ? hit.node : nullptr;
          }
          // An insert succeeds on a miss, an erase on a hit.
          if (op != nullptr) op->found = inserting ? !present : present;
        }
      },
      /*grain=*/1);
}

void BatchedSkipList::apply_erases(std::vector<Op*>& ops) {
  // Sort (key, op index): first op on a key wins the erase.
  std::vector<TaggedKey>& keys = key_scratch_;
  keys.resize(ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    keys[i] = TaggedKey{ops[i]->key, static_cast<std::uint32_t>(i)};
  }
  prep::sort_tagged(keys);
  search_sorted(ops, keys, /*inserting=*/false);

  // search_sorted left each distinct key's predecessors in pred_scratch_ and
  // its victim (or null) in node_scratch_.
  const std::int64_t m = par::pack_indices(
      static_cast<std::int64_t>(keys.size()),
      [&](std::int64_t i) {
        return node_scratch_[static_cast<std::size_t>(i)] != nullptr;
      },
      live_index_);
  if (m == 0) return;

  // Mark all victims before touching any pointer: the unlink pass below uses
  // `erased` to recognize "my recorded predecessor is itself a victim".
  rt::parallel_for(
      0, m,
      [&](std::int64_t j) {
        node_scratch_[live_index_[static_cast<std::size_t>(j)]]->erased = true;
      },
      kLeafGrain);

  // Unlink, one independent pass per level.  At level l the victims (in key
  // order) split into maximal chain-adjacent runs: a victim whose recorded
  // level-l predecessor is live starts a run, and the level-l predecessor of
  // a victim is chain-adjacent, so a dead predecessor is exactly the
  // previous level-l victim.  Each run's head rewires the single live
  // predecessor past the whole run; victims' own pointers stay pristine, so
  // every memory location is written by exactly one task.  Levels at or
  // above the tallest victim hold no victims; skip them, so a batch costs
  // the levels it touches, not the list's height.
  const int max_victim_h = static_cast<int>(par::reduce<std::int64_t>(
      m,
      [&](std::int64_t j) {
        return static_cast<std::int64_t>(
            node_scratch_[live_index_[static_cast<std::size_t>(j)]]->height);
      },
      [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
      std::int64_t{1}));
  rt::parallel_for(
      0, max_victim_h,
      [&](std::int64_t level) {
        const int l = static_cast<int>(level);
        LevelScratch& row = level_scratch_[l];
        std::vector<std::uint32_t>& at_level = row.at;
        const std::int64_t sz = par::pack_indices(
            m,
            [&](std::int64_t j) {
              return node_scratch_[live_index_[static_cast<std::size_t>(j)]]
                         ->height > l;
            },
            at_level);
        if (sz == 0) return;
        auto pred_of = [&](std::int64_t t) -> Node* {
          const std::size_t idx = live_index_[at_level[
              static_cast<std::size_t>(t)]];
          return pred_scratch_[idx * kMaxHeight + l];
        };
        auto victim_of = [&](std::int64_t t) -> Node* {
          return node_scratch_[live_index_[at_level[
              static_cast<std::size_t>(t)]]];
        };
        // Run ids via inclusive scan of head flags, then scatter each run's
        // last position so heads can reach their run's tail in O(1).
        std::vector<std::uint32_t>& run_id = row.run_id;
        run_id.resize(static_cast<std::size_t>(sz));
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const bool head = t == 0 || !pred_of(t)->erased;
              run_id[static_cast<std::size_t>(t)] = head ? 1u : 0u;
            },
            kLeafGrain);
        par::scan_inclusive(run_id.data(), sz,
                            [](std::uint32_t a, std::uint32_t b) {
                              return a + b;
                            });
        const std::size_t nruns = run_id[static_cast<std::size_t>(sz - 1)];
        std::vector<std::uint32_t>& run_last = row.run_last;
        run_last.resize(nruns);
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const auto ti = static_cast<std::size_t>(t);
              if (t + 1 == sz || run_id[ti + 1] != run_id[ti]) {
                run_last[run_id[ti] - 1] = static_cast<std::uint32_t>(t);
              }
            },
            kLeafGrain);
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const auto ti = static_cast<std::size_t>(t);
              const bool head = t == 0 || run_id[ti - 1] != run_id[ti];
              if (!head) return;
              Node* tail = victim_of(run_last[run_id[ti] - 1]);
              pred_of(t)->next[l] = tail->next[l];
            },
            kLeafGrain);
      },
      /*grain=*/1);

  size_ -= static_cast<std::size_t>(m);
  while (height_ > 1 && head_->next[height_ - 1].node == nullptr) --height_;
}

void BatchedSkipList::apply_inserts(const std::vector<Op*>& single,
                                    const std::vector<Op*>& multi) {
  // Step 1 (gather): compute per-op key offsets with a prefix sum, then copy
  // all keys in parallel.
  const std::size_t num_sources = single.size() + multi.size();
  key_offsets_.assign(num_sources, 0);
  for (std::size_t i = 0; i < single.size(); ++i) key_offsets_[i] = 1;
  for (std::size_t i = 0; i < multi.size(); ++i) {
    key_offsets_[single.size() + i] =
        static_cast<std::uint32_t>(multi[i]->num_keys);
  }
  par::scan_inclusive(key_offsets_.data(),
                      static_cast<std::int64_t>(num_sources),
                      [](std::uint32_t a, std::uint32_t b) { return a + b; });
  const std::size_t total_keys = key_offsets_[num_sources - 1];

  std::vector<TaggedKey>& keys = key_scratch_;
  keys.resize(total_keys);
  rt::parallel_for(
      0, static_cast<std::int64_t>(num_sources),
      [&](std::int64_t si) {
        const auto s = static_cast<std::size_t>(si);
        const std::size_t end = key_offsets_[s];
        if (s < single.size()) {
          keys[end - 1] = TaggedKey{single[s]->key, static_cast<std::uint32_t>(s)};
        } else {
          const Op* op = multi[s - single.size()];
          const std::size_t begin = end - op->num_keys;
          for (std::size_t k = 0; k < op->num_keys; ++k) {
            keys[begin + k] =
                TaggedKey{op->keys[k], static_cast<std::uint32_t>(s)};
          }
        }
      },
      /*grain=*/8);

  // Step 1 (sort).
  prep::sort_tagged(keys);

  // Step 2 (search).  Record s < single.size() is single[s]; MultiInsert
  // payload keys have no per-key result.
  search_sorted(single, keys, /*inserting=*/true);

  // search_sorted left each distinct key's predecessors and their pre-batch
  // successors in pred/succ_scratch_ and a fresh flag for every key in
  // flag_scratch_.  The list is untouched until the splice, so the
  // successors are exact and no re-walk is needed.
  const std::int64_t m = par::pack_indices(
      static_cast<std::int64_t>(total_keys),
      [&](std::int64_t i) {
        return flag_scratch_[static_cast<std::size_t>(i)] != 0;
      },
      live_index_);
  if (m == 0) return;

  // Draw heights and carve one contiguous arena block: per-node byte sizes,
  // exclusive scan for offsets, then parallel placement-init.
  const std::uint64_t batch_seed = rng_.next();
  height_scratch_.resize(static_cast<std::size_t>(m));
  offset_scratch_.resize(static_cast<std::size_t>(m));
  rt::parallel_for(
      0, m,
      [&](std::int64_t j) {
        const auto ji = static_cast<std::size_t>(j);
        const int h = height_from_bits(
            mix64(batch_seed + static_cast<std::uint64_t>(j)));
        height_scratch_[ji] = h;
        const std::size_t bytes =
            sizeof(Node) + sizeof(Link) * static_cast<std::size_t>(h - 1);
        offset_scratch_[ji] = (bytes + 15) & ~std::size_t{15};
      },
      kLeafGrain);
  const std::size_t total_bytes = par::scan_exclusive(
      offset_scratch_.data(), m,
      [](std::size_t a, std::size_t b) { return a + b; }, std::size_t{0});
  char* base = static_cast<char*>(arena_.allocate(total_bytes));
  node_scratch_.resize(static_cast<std::size_t>(m));
  rt::parallel_for(
      0, m,
      [&](std::int64_t j) {
        const auto ji = static_cast<std::size_t>(j);
        Node* node = reinterpret_cast<Node*>(base + offset_scratch_[ji]);
        node->key = keys[live_index_[ji]].key;
        node->height = height_scratch_[ji];
        node->erased = false;
        node_scratch_[ji] = node;
      },
      kLeafGrain);

  // Step 3 (divide-and-conquer splice): levels are pointer-disjoint, so they
  // run in parallel; within a level, new nodes sharing a pre-batch
  // predecessor form a contiguous segment in key order.  Every node writes
  // its own forward link (next new node in its segment, else the shared
  // predecessor's pre-batch link) and each segment head rewires the
  // predecessor — one flat parallel_for, each location written once.  The
  // new nodes' keys come from `keys`, not from the nodes.
  // Levels above the tallest new node are empty; skip them.
  const int max_new_h = static_cast<int>(par::reduce<std::int64_t>(
      m,
      [&](std::int64_t j) {
        return static_cast<std::int64_t>(
            height_scratch_[static_cast<std::size_t>(j)]);
      },
      [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
      std::int64_t{1}));
  rt::parallel_for(
      0, max_new_h,
      [&](std::int64_t level) {
        const int l = static_cast<int>(level);
        std::vector<std::uint32_t>& at_level = level_scratch_[l].at;
        const std::int64_t sz = par::pack_indices(
            m,
            [&](std::int64_t j) {
              return height_scratch_[static_cast<std::size_t>(j)] > l;
            },
            at_level);
        if (sz == 0) return;
        auto pred_of = [&](std::int64_t t) -> Node* {
          const std::size_t idx = live_index_[at_level[
              static_cast<std::size_t>(t)]];
          return pred_scratch_[idx * kMaxHeight + l];
        };
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const auto ti = static_cast<std::size_t>(t);
              const std::size_t idx = live_index_[at_level[ti]];
              Node* node = node_scratch_[at_level[ti]];
              Node* pred = pred_of(t);
              if (t + 1 < sz && pred_of(t + 1) == pred) {
                const std::uint32_t after = at_level[ti + 1];
                node->next[l] = Link{node_scratch_[after],
                                     keys[live_index_[after]].key};
              } else {
                node->next[l] = succ_scratch_[idx * kMaxHeight + l];
              }
              if (t == 0 || pred_of(t - 1) != pred) {
                // The segment head rewires the predecessor.
                pred->next[l] = Link{node, keys[idx].key};
              }
            },
            kLeafGrain);
      },
      /*grain=*/1);

  size_ += static_cast<std::size_t>(m);
  for (int l = height_; l < kMaxHeight; ++l) {
    if (head_->next[l].node != nullptr) height_ = l + 1;
  }
}

}  // namespace batcher::ds
