// The ingress state machine both batching front doors share (DESIGN.md §11):
// the per-slot status byte, the one table of its edges, and the intrusive
// MPSC announce list.  Batcher's trapped workers and ExternalDomain's external
// threads publish through the same push; Batcher's launcher and
// ExternalDomain's pump take the same claim.  Every status write in either
// front door is one row of `kEdges`, performed by advance() or
// try_advance(); the auditor checks events against the same rows and
// tests/test_ingress_explorer.cpp explores every interleaving over them.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "support/config.hpp"

namespace batcher {

struct OpRecordBase;

// Status of one slot with respect to its batching domain (§4): `Pending` /
// `Executing` / `Done` mean the owner is trapped on a suspended operation;
// `Free` means it has none.  `Revoked` is ExternalDomain's one addition: the
// owner took back a Pending record (deadline or shutdown), so the slot is
// free to its owner but still linked, on the announce list or in the pump's
// claim, until the pump unlinks it (Revoked -> Free).
enum class OpStatus : std::uint8_t { Free = 0, Pending, Executing, Done, Revoked };

inline const char* status_name(OpStatus s) {
  static constexpr const char* kNames[] = {"free", "pending", "executing",
                                           "done", "revoked"};
  return kNames[static_cast<int>(s)];
}

// Who takes an edge.  The launcher is Batcher's flag holder, which no owner
// can race; the pump is ExternalDomain's, which an owner's revoke can race;
// a Consumer edge is taken by whichever of the two holds the claim.
enum class Side : std::uint8_t { Owner, Launcher, Pump, Consumer, Quarantine };

// The edges, in the order of their rows in kEdges.
enum Edge : std::uint8_t { kPublish, kReArm, kRevoke, kRelease, kTake, kClaim,
                           kUnlink, kComplete, kFailWedged, kEdgeCount };

// One edge: from-state, to-state, the side that takes it, whether it is a
// CAS (an edge another side can race) or a plain store, whether the taker
// then pushes the slot onto the announce list, and the memory order.
struct EdgeRow {
  const char* name;
  OpStatus from, to;
  Side by;
  bool cas, push;
  std::memory_order order;
};
using EdgeTable = std::array<EdgeRow, kEdgeCount>;

// The paper's Fig. 3 cycle free -> pending -> executing -> done -> free, plus
// Revoked.  The orders, once:
//  * publish is relaxed: the push's release CAS is what publishes the Pending
//    store, the op pointer and the owner's other slot fields to the claimer,
//    whose acquire exchange reads them (AnnounceList's ordering note).
//  * take is relaxed: only the flag-holding launcher moves a claimed slot.
//  * re-arm, revoke and claim are acq_rel CASes on the byte the owner and the
//    pump race for a linked slot; exactly one side wins each race.
//  * unlink is a release CAS: it orders the pump's read of the link before
//    the owner's next push (publish's acquire status load pairs with it).
//  * complete is a release store: it publishes the BOP's results and any
//    recorded error to the owner's acquire load of Done.
//  * release is relaxed: the slot is the owner's alone until it publishes.
//  * fail-wedged is quarantine(fail_claimed)'s CAS for a pump wedged forever.
inline constexpr EdgeTable kEdges = [] {
  using enum OpStatus;
  using enum Side;
  using enum std::memory_order;
  return EdgeTable{{
      // name         from       to         by          cas    push   order
      {"publish",     Free,      Pending,   Owner,      false, true,  relaxed},
      {"re-arm",      Revoked,   Pending,   Owner,      true,  false, acq_rel},
      {"revoke",      Pending,   Revoked,   Owner,      true,  false, acq_rel},
      {"release",     Done,      Free,      Owner,      false, false, relaxed},
      {"take",        Pending,   Executing, Launcher,   false, false, relaxed},
      {"claim",       Pending,   Executing, Pump,       true,  false, acq_rel},
      {"unlink",      Revoked,   Free,      Pump,       true,  false, release},
      {"complete",    Executing, Done,      Consumer,   false, false, release},
      {"fail-wedged", Executing, Done,      Quarantine, true,  false, acq_rel},
  }};
}();

// The fields every announced slot carries; `Node` is the slot type itself.
template <typename Node>
struct AnnounceSlot {
  std::atomic<OpStatus> status{OpStatus::Free};
  OpRecordBase* op = nullptr;
  Node* announce_next = nullptr;  // AnnounceList link, owned by the consumer
};

// Performs store edge `E` on `slot`, whose from-state debug builds check.
template <Edge E, typename Slot>
void advance(Slot& slot) {
  static_assert(!kEdges[E].cas, "a CAS edge goes through try_advance");
  BATCHER_DASSERT(slot.status.load(std::memory_order_relaxed) == kEdges[E].from,
                  kEdges[E].name);
  slot.status.store(kEdges[E].to, kEdges[E].order);
}

// Performs CAS edge `E` on `slot`: true when the slot was in the from-state.
template <Edge E, typename Slot>
bool try_advance(Slot& slot) {
  static_assert(kEdges[E].cas, "a store edge goes through advance");
  OpStatus seen = kEdges[E].from;
  return slot.status.compare_exchange_strong(seen, kEdges[E].to,
                                             kEdges[E].order);
}

// Intrusive MPSC announce list over any `Node` with a `Node* announce_next`
// link.  Owners push their own slot; one consumer at a time claims the whole
// list.
//
// Memory ordering: owners only push and the consumer only claims whole
// lists, so there is no ABA window.  Each push's release CAS continues the
// release sequence headed by the earlier pushes, so the claim's one acquire
// exchange synchronizes with every owner in the claimed list: a walk of it
// reads each node's status, op pointer and link with relaxed loads and sees
// what the owner wrote before its push.  From the claim on, the link belongs
// to the consumer, so a walk reads it before any store the owner could
// reuse (and re-announce) the node from.
template <typename Node>
class AnnounceList {
 public:
  void push(Node& node) {
    Node* head = head_.load(std::memory_order_relaxed);
    do {
      node.announce_next = head;
    } while (!head_.compare_exchange_weak(head, &node,
                                          std::memory_order_release,
                                          std::memory_order_relaxed));
  }

  // Claims every announced node, newest first, or returns null.
  Node* claim() { return head_.exchange(nullptr, std::memory_order_acquire); }

  // A hint for pollers: the answer may be stale by the time they act on it.
  // A poller that expects an empty list tests this before claim(), so an
  // idle poll takes no read-modify-write on the head's line.
  bool empty() const {
    return head_.load(std::memory_order_relaxed) == nullptr;
  }

 private:
  alignas(kCacheLineSize) std::atomic<Node*> head_{nullptr};
};

}  // namespace batcher
