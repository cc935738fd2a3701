#include "ds/batched_om.hpp"

#include <algorithm>

#include "parallel/sort.hpp"
#include "runtime/api.hpp"
#include "support/config.hpp"

namespace batcher::ds {

BatchedOrderMaintenance::BatchedOrderMaintenance(rt::Scheduler& sched)
    : batcher_(sched, *this) {
  // The base element sits at label 0 with no neighbours.
  elements_.push_back(Element{0, kInvalidHandle, kInvalidHandle});
}

BatchedOrderMaintenance::Handle BatchedOrderMaintenance::allocate_element(
    std::uint64_t label, Handle prev, Handle next) {
  elements_.push_back(Element{label, next, prev});
  return static_cast<Handle>(elements_.size() - 1);
}

// ---------------------------------------------------------------------------
// Blocking API.
// ---------------------------------------------------------------------------

BatchedOrderMaintenance::Handle BatchedOrderMaintenance::insert_after(
    Handle ref) {
  Op op;
  op.kind = Kind::InsertAfter;
  op.a = ref;
  batcher_.batchify(op);
  return op.result;
}

bool BatchedOrderMaintenance::precedes(Handle a, Handle b) {
  Op op;
  op.kind = Kind::Precedes;
  op.a = a;
  op.b = b;
  batcher_.batchify(op);
  return op.before;
}

// ---------------------------------------------------------------------------
// Unsynchronized API.
// ---------------------------------------------------------------------------

BatchedOrderMaintenance::Handle BatchedOrderMaintenance::insert_after_unsafe(
    Handle ref) {
  Op op;
  op.kind = Kind::InsertAfter;
  op.a = ref;
  OpRecordBase* ops[1] = {&op};
  run_batch(ops, 1);
  return op.result;
}

bool BatchedOrderMaintenance::precedes_unsafe(Handle a, Handle b) const {
  return elements_[a].label < elements_[b].label;
}

bool BatchedOrderMaintenance::check_invariants() const {
  // Walk the list from base: labels strictly increase, links reciprocate,
  // every element is reachable exactly once.
  std::size_t visited = 0;
  Handle prev = kInvalidHandle;
  for (Handle cur = 0; cur != kInvalidHandle; cur = elements_[cur].next) {
    if (++visited > elements_.size()) return false;  // cycle
    if (elements_[cur].prev != prev) return false;
    if (prev != kInvalidHandle &&
        !(elements_[prev].label < elements_[cur].label)) {
      return false;
    }
    prev = cur;
  }
  return visited == elements_.size();
}

// ---------------------------------------------------------------------------
// BOP.
// ---------------------------------------------------------------------------

bool BatchedOrderMaintenance::group_fits(Handle ref, std::size_t n) const {
  const Element& e = elements_[ref];
  const std::uint64_t next_label =
      e.next == kInvalidHandle ? kLabelSpan : elements_[e.next].label;
  return next_label - e.label > n;  // need n distinct labels inside the gap
}

void BatchedOrderMaintenance::splice_group(Handle ref, Op* const* group,
                                           std::size_t n) {
  Element& anchor = elements_[ref];
  const Handle old_next = anchor.next;
  const std::uint64_t lo = anchor.label;
  const std::uint64_t hi =
      old_next == kInvalidHandle ? kLabelSpan : elements_[old_next].label;
  const std::uint64_t gap = hi - lo;

  // New elements land in working-set order right after the anchor; labels
  // are spread evenly through the gap.
  Handle prev = ref;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t label =
        lo + gap / (n + 1) * (i + 1);
    const Handle h = allocate_element(label, prev, old_next);
    elements_[prev].next = h;
    group[i]->result = h;
    prev = h;
  }
  if (old_next != kInvalidHandle) elements_[old_next].prev = prev;
}

void BatchedOrderMaintenance::relabel_all() {
  ++relabels_;
  // Spread all elements evenly across the label space (leaving slack at the
  // top so tail inserts keep working).
  std::size_t count = 0;
  for (Handle cur = 0; cur != kInvalidHandle; cur = elements_[cur].next) {
    ++count;
  }
  const std::uint64_t stride = kLabelSpan / (count + 1);
  std::uint64_t label = 0;
  for (Handle cur = 0; cur != kInvalidHandle; cur = elements_[cur].next) {
    elements_[cur].label = label;
    label += stride;
  }
}

void BatchedOrderMaintenance::run_batch(OpRecordBase* const* ops,
                                        std::size_t count) {
  read_ops_.clear();
  insert_ops_.clear();
  for (std::size_t i = 0; i < count; ++i) {
    Op* op = static_cast<Op*>(ops[i]);
    (op->kind == Kind::Precedes ? read_ops_ : insert_ops_).push_back(op);
  }

  // Phase 1: PRECEDES queries against the pre-batch labels (parallel).
  rt::parallel_for(
      0, static_cast<std::int64_t>(read_ops_.size()),
      [&](std::int64_t i) {
        Op* op = read_ops_[static_cast<std::size_t>(i)];
        op->before = elements_[op->a].label < elements_[op->b].label;
      },
      /*grain=*/1);

  if (insert_ops_.empty()) return;

  // Phase 2: group inserts by anchor, working-set order within a group.
  std::vector<std::pair<std::uint64_t, Op*>> order(insert_ops_.size());
  for (std::size_t i = 0; i < insert_ops_.size(); ++i) {
    order[i] = {(static_cast<std::uint64_t>(insert_ops_[i]->a) << 20) | i,
                insert_ops_[i]};
  }
  par::parallel_sort(order.data(), static_cast<std::int64_t>(order.size()),
                     [](const auto& x, const auto& y) { return x.first < y.first; });

  std::vector<std::size_t> group_starts;
  group_starts.push_back(0);
  for (std::size_t i = 1; i < order.size(); ++i) {
    if ((order[i].first >> 20) != (order[i - 1].first >> 20)) {
      group_starts.push_back(i);
    }
  }
  group_starts.push_back(order.size());

  // Any group without label room forces a global relabel first.
  bool need_relabel = false;
  for (std::size_t g = 0; g + 1 < group_starts.size(); ++g) {
    const Handle ref = order[group_starts[g]].second->a;
    if (!group_fits(ref, group_starts[g + 1] - group_starts[g])) {
      need_relabel = true;
      break;
    }
  }
  if (need_relabel) relabel_all();
  BATCHER_ASSERT(
      [&] {
        for (std::size_t g = 0; g + 1 < group_starts.size(); ++g) {
          const Handle ref = order[group_starts[g]].second->a;
          if (!group_fits(ref, group_starts[g + 1] - group_starts[g])) {
            return false;
          }
        }
        return true;
      }(),
      "label space exhausted even after relabelling");

  // Element storage must not reallocate during the parallel splice phase.
  elements_.reserve(elements_.size() + insert_ops_.size());

  // Splices of distinct anchors touch disjoint links and label ranges, but
  // the shared `elements_` table append is not concurrency-safe — so groups
  // pre-allocate is not worth the complexity at batch sizes <= P; apply the
  // groups sequentially (each group internally is O(group) work).  The
  // queries above and the sort carry the batch's parallelism.
  std::vector<Op*> scratch;
  for (std::size_t g = 0; g + 1 < group_starts.size(); ++g) {
    const std::size_t lo = group_starts[g];
    const std::size_t hi = group_starts[g + 1];
    scratch.clear();
    for (std::size_t i = lo; i < hi; ++i) scratch.push_back(order[i].second);
    splice_group(scratch[0]->a, scratch.data(), scratch.size());
  }
}

}  // namespace batcher::ds
