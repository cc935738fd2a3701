// The ingress state machine both batching front doors share (DESIGN.md §11):
// the per-slot status byte and the intrusive MPSC announce list.  Batcher's
// trapped workers and ExternalDomain's external threads publish through the
// same push; Batcher's launcher and ExternalDomain's pump take the same claim.
#pragma once

#include <atomic>
#include <cstdint>

#include "support/config.hpp"

namespace batcher {

// Status of one slot with respect to its batching domain (§4): `Pending` /
// `Executing` / `Done` mean the owner is trapped on a suspended operation;
// `Free` means it has none.  `Revoked` is ExternalDomain's one addition: the
// owner took back a Pending record (deadline or shutdown), so the slot is
// free to its owner but still linked, on the announce list or in the pump's
// claim, until the pump unlinks it (Revoked -> Free).
enum class OpStatus : std::uint8_t { Free = 0, Pending, Executing, Done, Revoked };

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
