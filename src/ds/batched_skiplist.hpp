// Batched skip list — the data structure of the paper's experimental
// evaluation (§7).
//
// The BOP follows the paper's three-step batch insert, run once for the
// whole batch whatever kinds of operations it mixes:
//   1. gather every record's keys and sort them once (prep::sort_tagged:
//      std::sort up to the sort cutoff, parallel merge sort above it).  Each
//      key's tag holds its record's phase above the record's index, so the
//      sort also orders a key's records by phase;
//   2. search the main list once per distinct key for its per-level
//      predecessors (and pre-batch successors), in interleaved groups of 16
//      (kGroup) consecutive keys.  The searches are read-only and
//      independent, but each is a chain of dependent loads through a list
//      far larger than the cache, so a lone descent mostly waits on misses.
//      Every forward link caches its target's key, so a descent decides
//      "right or down" from the node it is on and misses only when it moves
//      right.  One task advances its group's descents round-robin, a move
//      right each, prefetching the link every descent reads next, so the
//      group's misses overlap instead of queuing; groups run in parallel.
//      Reads answer from these pre-batch results, and so do erase hits and
//      insert misses;
//   3. unlink the victims and splice the new nodes with a per-level
//      divide-and-conquer pass: victims at a level split into
//      chain-adjacent runs and each run's single live predecessor is
//      rewired past the run; new nodes sharing a level-l predecessor form a
//      contiguous segment, every node writes its own forward pointer and
//      each segment head rewires the shared predecessor, all in one flat
//      parallel_for per level (levels are themselves independent, and a
//      batch that fits one leaf runs them all in that leaf).  The unlink
//      reuses the search's rows.  An insert whose recorded predecessor or
//      successor below its height was a victim searches again after the
//      unlink; no other key does.  s(n) = O(lg n · lg x) span, where the
//      paper's prototype splices sequentially in Θ(x).
//
// Batches may mix operation kinds.  Phase order within a batch (documented
// semantics; the paper leaves it open): CONTAINS observes the pre-batch
// state, then ERASE, then INSERT.  Each op record also supports the paper's
// experimental trick of carrying many keys per record (their BATCHIFY call
// created 100 insertion records at once) via MultiInsert.
//
// Following Invariant 1, nothing here is synchronized: no locks, no atomics.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"
#include "ds/batch_prep.hpp"
#include "support/arena.hpp"
#include "support/rng.hpp"

namespace batcher::ds {

class BatchedSkipList final : public BatchedStructure {
 public:
  using Key = std::int64_t;

  enum class Kind : std::uint8_t {
    Insert,
    MultiInsert,
    Contains,
    Erase,
    Successor,   // smallest key >= probe -> out_key
    RangeCount,  // #keys in [key, key2] -> count
  };

  struct Op : OpRecordBase {
    Kind kind = Kind::Insert;
    Key key = 0;                   // Insert / Contains / Erase / read probes
    Key key2 = 0;                  // RangeCount upper bound
    const Key* keys = nullptr;     // MultiInsert
    std::size_t num_keys = 0;      // MultiInsert
    bool found = false;            // result: Contains / Erase hit, or Insert
                                   // actually inserted a new key
    std::int64_t count = 0;        // RangeCount result
    std::optional<Key> out_key;    // Successor result
  };

  explicit BatchedSkipList(rt::Scheduler& sched,
                           std::uint64_t seed = 0xdecafbadULL);

  BatchedSkipList(const BatchedSkipList&) = delete;
  BatchedSkipList& operator=(const BatchedSkipList&) = delete;

  // --- blocking, implicitly batched operations (algorithm-programmer API) ---
  bool insert(Key key);
  void multi_insert(std::span<const Key> keys);
  bool contains(Key key);
  bool erase(Key key);
  // Smallest key >= probe, if any.
  std::optional<Key> successor(Key probe);
  // Number of keys in [lo, hi].  Costs O(lg n + answer): the count walks the
  // level-0 chain across the range.
  std::int64_t range_count(Key lo, Key hi);

  // --- unsynchronized operations for setup/inspection outside runs ---
  bool insert_unsafe(Key key);      // used to pre-populate before timing
  bool contains_unsafe(Key key) const;
  std::size_t size_unsafe() const { return size_; }
  int height_unsafe() const { return height_; }

  // Structural self-check: sorted level-0 chain, every level a sublist of
  // the level below, every link's cached key equal to its target's (kNoKey
  // when null, head included), size consistent, and height_unsafe() exactly
  // the number of non-empty levels (1 when empty).  For tests.
  bool check_invariants() const;

  Batcher& batcher() { return batcher_; }

  // BOP.
  void run_batch(OpRecordBase* const* ops, std::size_t count) override;

 private:
  static constexpr int kMaxHeight = 24;
  // Descents interleaved by find_preds_group.  The useful depth is how many
  // misses one core keeps in flight, a property of the memory system, not
  // of the workload, so it is a constant.  With key-cached links sixteen
  // cut the fig5_insert search 11% below eight, and 32 read the same as
  // sixteen (DESIGN.md §16).
  static constexpr int kGroup = 16;

  // The key a null link caches.  A descent moves right only on
  // `link.key < probe`, which kNoKey never satisfies, and a hit also needs a
  // non-null `node`, so a real key equal to kNoKey is still found.
  static constexpr Key kNoKey = std::numeric_limits<Key>::max();

  struct Node;
  // A forward link with a copy of its target's key (kNoKey when null).
  // Whoever writes a link writes both fields, so the copy is always exact.
  struct Link {
    Node* node;
    Key key;
  };

  struct Node {
    Key key;
    int height;
    bool erased;    // set when unlinked; lets the unlink and the insert
                    // patch of the same batch see that a recorded
                    // predecessor is dead
    Link next[1];   // flexible: `height` links, allocated by arena
  };

  Node* allocate_node(Key key, int height);
  int random_height();
  static int height_from_bits(std::uint64_t bits);
  // Per-level predecessors of `key` (strictly smaller), highest levels first
  // filled with head_.  `preds` must have room for kMaxHeight entries.
  // Scalar form, for the unsafe API only; every BOP search goes through
  // find_preds_group.
  void find_preds(Key key, Node** preds) const;
  // find_preds for n <= kGroup keys at once: descent i fills preds[i] (and
  // succs[i] if `succs` is non-null).  The descents advance round-robin one
  // move right at a time, each prefetching the link its descent reads next,
  // so their cache and TLB misses overlap.
  void find_preds_group(int n, const Key* keys, Node** const* preds,
                        Link* const* succs) const;

  // The BOP's steps, in order (the header comment above describes them).
  void gather_sorted(std::size_t count);
  void search_batch();
  bool unlink_victims();  // false when the batch unlinks nothing
  void insert_fresh(bool unlinked);
  // Searches distinct keys index(0), ..., index(n - 1) in interleaved
  // groups of kGroup, filling their pred (and, if `with_succs`, succ) rows.
  // `then(j, hit)` runs after key j's descent with the link to its first
  // node >= the key.
  template <typename Index, typename Then>
  void search_rows(std::int64_t n, const Index& index, bool with_succs,
                   const Then& then);

  Node* head_;
  int height_ = 1;     // number of levels currently in use
  std::size_t size_ = 0;
  Xoshiro256 rng_;

  // Node arena.  Erased nodes are unlinked but reclaimed only at
  // destruction: with at most one batch running there is no safe-memory-
  // reclamation problem to solve, and the benchmarks are insert-dominated.
  // An insert batch carves all its nodes from one contiguous allocation.
  Arena arena_;

  OpRecordBase* const* batch_ = nullptr;  // the running batch's records
  std::uint32_t phases_ = 0;               // bit p: the batch holds phase p

  // Scratch reused across batches: once grown to a batch's size, these
  // vectors do not allocate again.
  std::vector<prep::Tagged<Key>> key_scratch_;  // every key, sorted
  std::vector<std::uint32_t> key_offsets_;  // per record: end of its keys
  std::vector<std::uint32_t> head_index_;  // first sorted record of each key
  // Per distinct key j: its predecessors (and pre-batch successors) at
  // every level, rows of kMaxHeight from j * kMaxHeight, its victim (the
  // node an erase of the batch takes, or null) and whether an insert of the
  // batch adds it.
  std::vector<Node*> pred_scratch_;
  std::vector<Link> succ_scratch_;
  std::vector<Node*> victims_;
  std::vector<std::uint8_t> fresh_;
  // Per distinct key, for the fresh ones: new node, height (0 when the key
  // is not fresh) and arena byte offset.
  std::vector<Node*> node_scratch_;
  std::vector<int> height_scratch_;
  std::vector<std::size_t> offset_scratch_;
  std::vector<std::uint32_t> patch_index_;  // keys the insert patch re-searches
  // Per-level rows of the splice and unlink passes.  Levels run in
  // parallel and level l touches only row l; the padding keeps two levels'
  // vector headers off one cache line.
  struct alignas(64) LevelScratch {
    std::vector<std::uint32_t> at;        // positions with height > l
    std::vector<std::uint32_t> run_id;    // erase: inclusive run numbering
    std::vector<std::uint32_t> run_last;  // erase: last position of each run
  };
  LevelScratch level_scratch_[kMaxHeight];

  Batcher batcher_;
};

}  // namespace batcher::ds
