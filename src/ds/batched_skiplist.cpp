#include "ds/batched_skiplist.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

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

namespace {

// A record's phase, in the documented order; a single Insert comes before
// any MultiInsert, so it wins `found` over a payload copy of its key.
enum Phase : std::uint32_t { kRead, kErase, kSingleInsert, kMultiInsert };

// A key's `ws` tag: its record's phase in the top two bits and the record's
// index in the batch below them, so the (key, ws) sort orders a key's
// records by phase, then by batch order.  A batch holds far fewer than
// 2^30 records.
constexpr int kIndexBits = 30;

std::uint32_t tag_of(Phase phase, std::size_t index) {
  return phase << kIndexBits | static_cast<std::uint32_t>(index);
}
Phase phase_of_tag(std::uint32_t ws) {
  return static_cast<Phase>(ws >> kIndexBits);
}
std::size_t index_of_tag(std::uint32_t ws) {
  return ws & ((std::uint32_t{1} << kIndexBits) - 1);
}

Phase phase_of(BatchedSkipList::Kind kind) {
  switch (kind) {
    case BatchedSkipList::Kind::Contains:
    case BatchedSkipList::Kind::Successor:
    case BatchedSkipList::Kind::RangeCount:
      return kRead;
    case BatchedSkipList::Kind::Erase: return kErase;
    case BatchedSkipList::Kind::Insert: return kSingleInsert;
    case BatchedSkipList::Kind::MultiInsert: return kMultiInsert;
  }
  return kRead;
}

// Grain of the per-level loops of splice and unlink for m nodes: a batch
// that fits one leaf runs all its levels in that leaf, a bigger one forks a
// task per level.
std::int64_t level_grain(std::int64_t m) {
  return m <= kLeafGrain ? std::numeric_limits<std::int64_t>::max() : 1;
}

}  // namespace

void BatchedSkipList::run_batch(OpRecordBase* const* ops, std::size_t count) {
  // Documented phase order: reads (pre-state), erase, insert.  One sort and
  // one search serve all three.
  batch_ = ops;
  gather_sorted(count);
  search_batch();
  const bool unlinked = (phases_ & 1u << kErase) != 0 && unlink_victims();
  if ((phases_ & (1u << kSingleInsert | 1u << kMultiInsert)) != 0) {
    insert_fresh(unlinked);
  }
}

void BatchedSkipList::gather_sorted(std::size_t count) {
  // Gather: per record its key count (offsets by a prefix sum) and, over
  // the batch, the phases it holds; then every record's keys, tagged, in
  // parallel.
  phases_ = 0;
  key_offsets_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Op* op = static_cast<const Op*>(batch_[i]);
    const bool multi = op->kind == Kind::MultiInsert;
    key_offsets_[i] = multi ? static_cast<std::uint32_t>(op->num_keys) : 1;
    phases_ |= 1u << phase_of(op->kind);
  }
  par::scan_inclusive(key_offsets_.data(), static_cast<std::int64_t>(count),
                      [](std::uint32_t a, std::uint32_t b) { return a + b; });
  std::vector<TaggedKey>& keys = key_scratch_;
  keys.resize(count > 0 ? key_offsets_[count - 1] : 0);
  rt::parallel_for(
      0, static_cast<std::int64_t>(count),
      [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        const Op* op = static_cast<const Op*>(batch_[i]);
        const std::uint32_t ws = tag_of(phase_of(op->kind), i);
        const std::size_t end = key_offsets_[i];
        if (op->kind != Kind::MultiInsert) {
          keys[end - 1] = TaggedKey{op->key, ws};
          return;
        }
        const std::size_t begin = end - op->num_keys;
        for (std::size_t k = 0; k < op->num_keys; ++k) {
          keys[begin + k] = TaggedKey{op->keys[k], ws};
        }
      },
      /*grain=*/8);

  prep::sort_tagged(keys);
}

template <typename Index, typename Then>
void BatchedSkipList::search_rows(std::int64_t n, const Index& index,
                                  bool with_succs, const Then& then) {
  rt::parallel_for(
      0, (n + kGroup - 1) / kGroup,
      [&](std::int64_t g) {
        const std::int64_t lo = g * kGroup;
        const int count =
            static_cast<int>(std::min<std::int64_t>(kGroup, n - lo));
        std::size_t at[kGroup] = {};
        Key probes[kGroup] = {};
        Node** preds[kGroup] = {};
        Link* succs[kGroup] = {};
        for (int i = 0; i < count; ++i) {
          at[i] = index(lo + i);
          probes[i] = key_scratch_[head_index_[at[i]]].key;
          preds[i] = &pred_scratch_[at[i] * kMaxHeight];
          if (with_succs) succs[i] = &succ_scratch_[at[i] * kMaxHeight];
        }
        find_preds_group(count, probes, preds, with_succs ? succs : nullptr);
        for (int i = 0; i < count; ++i) then(at[i], preds[i][0]->next[0]);
      },
      /*grain=*/1);
}

void BatchedSkipList::search_batch() {
  // Scratch grows but is never pre-cleared: every slot a later step reads is
  // written here, so a serial O(n·lg n)-byte fill never lands on the
  // critical path.
  const std::vector<TaggedKey>& keys = key_scratch_;
  const auto nk = static_cast<std::int64_t>(keys.size());
  const std::int64_t d = par::pack_indices(
      nk,
      [&](std::int64_t i) {
        const auto idx = static_cast<std::size_t>(i);
        return idx == 0 || keys[idx].key != keys[idx - 1].key;
      },
      head_index_);
  const auto dn = static_cast<std::size_t>(d);
  const bool inserting =
      (phases_ & (1u << kSingleInsert | 1u << kMultiInsert)) != 0;
  if (pred_scratch_.size() < dn * kMaxHeight) {
    pred_scratch_.resize(dn * kMaxHeight);
  }
  if (inserting && succ_scratch_.size() < dn * kMaxHeight) {
    succ_scratch_.resize(dn * kMaxHeight);
  }
  victims_.resize(dn);
  fresh_.resize(dn);

  // One descent per distinct key.  The list is untouched until the unlink,
  // so `hit`, the link to the key's first node >= it, is the pre-batch
  // answer for every record of the key, and its cached key decides
  // presence.  The key's records then resolve in phase order: reads answer
  // from `hit`, the first erase of a present key takes its node, and the
  // first insert of a key absent after the erases adds it.
  search_rows(
      d, [](std::int64_t j) { return static_cast<std::size_t>(j); }, inserting,
      [&](std::size_t j, Link hit) {
        const std::size_t end = j + 1 < dn ? head_index_[j + 1] : keys.size();
        bool present =
            hit.node != nullptr && hit.key == keys[head_index_[j]].key;
        Node* victim = nullptr;
        bool fresh = false;
        for (std::size_t idx = head_index_[j]; idx < end; ++idx) {
          const std::uint32_t ws = keys[idx].ws;
          Op* op = static_cast<Op*>(batch_[index_of_tag(ws)]);
          switch (phase_of_tag(ws)) {
            case kRead:
              if (op->kind == Kind::Contains) {
                op->found = present;
              } else if (op->kind == Kind::Successor) {
                op->out_key = hit.node != nullptr ? std::optional<Key>(hit.key)
                                                  : std::nullopt;
              } else {  // RangeCount
                std::int64_t c = 0;
                for (Link it = hit; it.node != nullptr && it.key <= op->key2;
                     it = it.node->next[0]) {
                  ++c;
                }
                op->count = c;
              }
              break;
            case kErase:
              op->found = present;
              if (present) victim = hit.node;
              present = false;
              break;
            case kSingleInsert:
              op->found = !present;
              [[fallthrough]];
            case kMultiInsert:  // payload keys have no per-key result
              fresh = fresh || !present;
              present = true;
              break;
          }
        }
        victims_[j] = victim;
        fresh_[j] = fresh ? 1 : 0;
      });
}

bool BatchedSkipList::unlink_victims() {
  // Everything here is indexed by distinct key j; a key without a victim
  // counts as height 0, so it drops out of every level.
  const auto d = static_cast<std::int64_t>(victims_.size());
  auto height_of = [&](std::int64_t j) -> std::int64_t {
    const Node* victim = victims_[static_cast<std::size_t>(j)];
    return victim != nullptr ? victim->height : 0;
  };
  const int max_victim_h = static_cast<int>(par::reduce<std::int64_t>(
      d, height_of,
      [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
      std::int64_t{0}));
  if (max_victim_h == 0) return false;

  // Mark all victims before touching any pointer: the unlink pass below uses
  // `erased` to recognize "my recorded predecessor is itself a victim".
  rt::parallel_for(
      0, d,
      [&](std::int64_t j) {
        Node* victim = victims_[static_cast<std::size_t>(j)];
        if (victim != nullptr) victim->erased = true;
      },
      kLeafGrain);

  // Unlink, one independent pass per level, from the search's pre-batch
  // predecessor rows.  At level l the victims (in key order) split into
  // maximal chain-adjacent runs: a victim whose recorded level-l predecessor
  // is live starts a run, and the level-l predecessor of a victim is
  // chain-adjacent, so a dead predecessor is exactly the previous level-l
  // victim.  Each run's head rewires the single live predecessor past the
  // whole run; victims' own pointers stay pristine, so every memory
  // location is written by exactly one task.  Levels at or above the
  // tallest victim hold no victims; skip them, so a batch costs the levels
  // it touches, not the list's height.
  rt::parallel_for(
      0, max_victim_h,
      [&](std::int64_t level) {
        const int l = static_cast<int>(level);
        LevelScratch& row = level_scratch_[l];
        std::vector<std::uint32_t>& at_level = row.at;
        const std::int64_t sz = par::pack_indices(
            d, [&](std::int64_t j) { return height_of(j) > l; }, at_level);
        if (sz == 0) return;
        auto pred_of = [&](std::int64_t t) -> Node* {
          return pred_scratch_[at_level[static_cast<std::size_t>(t)] *
                                   kMaxHeight + l];
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
              Node* tail = victims_[at_level[run_last[run_id[ti] - 1]]];
              pred_of(t)->next[l] = tail->next[l];
            },
            kLeafGrain);
      },
      level_grain(d));

  // Level 0 holds every victim.
  size_ -= level_scratch_[0].at.size();
  while (height_ > 1 && head_->next[height_ - 1].node == nullptr) --height_;
  return true;
}

void BatchedSkipList::insert_fresh(bool unlinked) {
  // Indexed by distinct key j, like the unlink: a key the batch does not add
  // gets height 0 and no bytes, so it drops out of carve and every level.
  const auto d = static_cast<std::int64_t>(fresh_.size());
  auto key_of = [&](std::size_t j) { return key_scratch_[head_index_[j]].key; };

  // Draw heights and size each node: per-node byte sizes, then an exclusive
  // scan for their offsets in one contiguous arena block.
  const std::uint64_t batch_seed = rng_.next();
  height_scratch_.resize(static_cast<std::size_t>(d));
  offset_scratch_.resize(static_cast<std::size_t>(d));
  rt::parallel_for(
      0, d,
      [&](std::int64_t j) {
        const auto ji = static_cast<std::size_t>(j);
        const int h = fresh_[ji] != 0
                          ? height_from_bits(mix64(
                                batch_seed + static_cast<std::uint64_t>(j)))
                          : 0;
        height_scratch_[ji] = h;
        const std::size_t bytes =
            h > 0 ? sizeof(Node) +
                        sizeof(Link) * static_cast<std::size_t>(h - 1)
                  : 0;
        offset_scratch_[ji] = (bytes + 15) & ~std::size_t{15};
      },
      kLeafGrain);
  const int max_new_h = static_cast<int>(par::reduce<std::int64_t>(
      d,
      [&](std::int64_t j) {
        return static_cast<std::int64_t>(
            height_scratch_[static_cast<std::size_t>(j)]);
      },
      [](std::int64_t a, std::int64_t b) { return a > b ? a : b; },
      std::int64_t{0}));
  if (max_new_h == 0) return;

  // Patch.  The rows are the pre-batch neighbours, and the unlink may have
  // taken one of them out: below its height, a fresh key is disturbed when
  // a recorded predecessor is a victim (`erased`) or a recorded successor
  // was (the live predecessor's link has moved past it).  Only those keys
  // search again, on the list as the unlink left it; every other row is
  // still exact, so the splice sees the post-erase list throughout.
  if (unlinked) {
    const std::int64_t np = par::pack_indices(
        d,
        [&](std::int64_t j) {
          const auto ji = static_cast<std::size_t>(j);
          const std::size_t r = ji * kMaxHeight;
          for (int l = 0; l < height_scratch_[ji]; ++l) {
            const Node* pred = pred_scratch_[r + l];
            if (pred->erased ||
                pred->next[l].node != succ_scratch_[r + l].node) {
              return true;
            }
          }
          return false;
        },
        patch_index_);
    search_rows(
        np,
        [&](std::int64_t p) {
          return patch_index_[static_cast<std::size_t>(p)];
        },
        /*with_succs=*/true, [](std::size_t, Link) {});
  }

  // Carve one contiguous arena block and placement-init the nodes.
  const std::size_t total_bytes = par::scan_exclusive(
      offset_scratch_.data(), d,
      [](std::size_t a, std::size_t b) { return a + b; }, std::size_t{0});
  char* base = static_cast<char*>(arena_.allocate(total_bytes));
  node_scratch_.resize(static_cast<std::size_t>(d));
  rt::parallel_for(
      0, d,
      [&](std::int64_t j) {
        const auto ji = static_cast<std::size_t>(j);
        if (height_scratch_[ji] == 0) return;
        Node* node = reinterpret_cast<Node*>(base + offset_scratch_[ji]);
        node->key = key_of(ji);
        node->height = height_scratch_[ji];
        node->erased = false;
        node_scratch_[ji] = node;
      },
      kLeafGrain);

  // Step 3 (divide-and-conquer splice): levels are pointer-disjoint, so they
  // run in parallel; within a level, new nodes sharing a predecessor form a
  // contiguous segment in key order.  Every node writes its own forward
  // link (next new node in its segment, else the shared predecessor's
  // recorded successor) and each segment head rewires the predecessor — one
  // flat parallel_for, each location written once.  The new nodes' keys
  // come from the sorted batch keys, not from the nodes.  Levels above the
  // tallest new node are empty; skip them.
  rt::parallel_for(
      0, max_new_h,
      [&](std::int64_t level) {
        const int l = static_cast<int>(level);
        std::vector<std::uint32_t>& at_level = level_scratch_[l].at;
        const std::int64_t sz = par::pack_indices(
            d,
            [&](std::int64_t j) {
              return height_scratch_[static_cast<std::size_t>(j)] > l;
            },
            at_level);
        auto pred_of = [&](std::int64_t t) -> Node* {
          return pred_scratch_[at_level[static_cast<std::size_t>(t)] *
                                   kMaxHeight + l];
        };
        rt::parallel_for(
            0, sz,
            [&](std::int64_t t) {
              const auto ti = static_cast<std::size_t>(t);
              const std::uint32_t j = at_level[ti];
              Node* node = node_scratch_[j];
              Node* pred = pred_of(t);
              if (t + 1 < sz && pred_of(t + 1) == pred) {
                const std::uint32_t after = at_level[ti + 1];
                node->next[l] = Link{node_scratch_[after], key_of(after)};
              } else {
                node->next[l] = succ_scratch_[j * kMaxHeight + l];
              }
              if (t == 0 || pred_of(t - 1) != pred) {
                // The segment head rewires the predecessor.
                pred->next[l] = Link{node, key_of(j)};
              }
            },
            kLeafGrain);
      },
      level_grain(d));

  // Level 0 holds every new node.
  size_ += level_scratch_[0].at.size();
  for (int l = height_; l < kMaxHeight; ++l) {
    if (head_->next[l].node != nullptr) height_ = l + 1;
  }
}

}  // namespace batcher::ds
