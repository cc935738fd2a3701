// Batched order-maintenance list.
//
// The paper's introduction motivates implicit batching with on-the-fly race
// detection: an SP-maintenance structure must be updated at every fork/join
// *before control flow continues*, so the program cannot gather those updates
// into explicit batches — but a scheduler can.  The substrate of
// SP-maintenance (Bender et al. [5]) is an order-maintenance list:
//
//   insert_after(x) -> new element y placed immediately after x;
//   precedes(a, b)  -> is a before b in the list?
//
// Implementation: label-based list order (Dietz & Sleator lineage): every
// element carries a 62-bit label; `precedes` is one comparison.  A batch
// groups its inserts by anchor element — distinct anchors get disjoint label
// gaps and disjoint link splices, so groups apply in parallel with no
// synchronization (Invariant 1 supplies exclusivity).  When any group's gap
// is too small the whole list is relabelled evenly first (amortized O(1) per
// insert for polynomially-bounded lists).
//
// Batch phase order (consistent with the other structures): PRECEDES queries
// observe the pre-batch list, then inserts apply in working-set order.
#pragma once

#include <cstdint>
#include <vector>

#include "batcher/batcher.hpp"
#include "batcher/op_record.hpp"

namespace batcher::ds {

class BatchedOrderMaintenance final : public BatchedStructure {
 public:
  // Stable element identifier (index into the element table).
  using Handle = std::uint32_t;
  static constexpr Handle kInvalidHandle = static_cast<Handle>(-1);

  enum class Kind : std::uint8_t { InsertAfter, Precedes };

  struct Op : OpRecordBase {
    Kind kind = Kind::InsertAfter;
    Handle a = 0;                     // InsertAfter anchor / Precedes lhs
    Handle b = 0;                     // Precedes rhs
    Handle result = kInvalidHandle;   // InsertAfter result
    bool before = false;              // Precedes result
  };

  explicit BatchedOrderMaintenance(rt::Scheduler& sched);

  BatchedOrderMaintenance(const BatchedOrderMaintenance&) = delete;
  BatchedOrderMaintenance& operator=(const BatchedOrderMaintenance&) = delete;

  // The first element of the list, created at construction.
  Handle base() const { return 0; }

  // --- blocking, implicitly batched API ---
  Handle insert_after(Handle ref);
  bool precedes(Handle a, Handle b);

  // --- unsynchronized API (outside runs) ---
  Handle insert_after_unsafe(Handle ref);
  bool precedes_unsafe(Handle a, Handle b) const;
  std::size_t size_unsafe() const { return elements_.size(); }
  std::uint64_t relabels_unsafe() const { return relabels_; }

  // Labels strictly increase along the linked list; links are consistent.
  bool check_invariants() const;

  Batcher& batcher() { return batcher_; }

  void run_batch(OpRecordBase* const* ops, std::size_t count) override;

 private:
  struct Element {
    std::uint64_t label;
    Handle next;
    Handle prev;
  };

  static constexpr std::uint64_t kLabelSpan = std::uint64_t{1} << 62;

  Handle allocate_element(std::uint64_t label, Handle prev, Handle next);
  void relabel_all();
  void splice_group(Handle ref, Op* const* group, std::size_t n);
  bool group_fits(Handle ref, std::size_t n) const;

  std::vector<Element> elements_;
  std::uint64_t relabels_ = 0;

  std::vector<Op*> read_ops_, insert_ops_;  // batch scratch
  Batcher batcher_;
};

}  // namespace batcher::ds
