// Exhaustive interleaving explorer for ExternalDomain's ingress protocol
// (batcher/external.hpp) over the edge table of batcher/announce.hpp.
//
// Actors: two external owners, one pump and a closer.  Owner 0's first op has
// a deadline, so it may revoke at any step; it then resubmits.  Owner 1
// submits and waits.  The pump runs serve(): pump_once() until the domain is
// closed and a step finds nothing.  The closer runs shutdown().  Each actor
// moves one atomic step at a time (a status load, store or CAS, a push, the
// claim's exchange, the BOP), and every step names the runtime function it
// models.  The status steps perform rows of the table the explorer is handed
// (store or CAS, push or not, from and to as the row says), so handing it an
// edited table is a mutation test of the protocol.
//
// The search is stateful: a state is the slots, the list, every actor's
// program counter and locals, and a ghost record per op.  Every reachable
// state is expanded once, and the number of complete interleavings is counted
// over the state graph.  Waits are guards rather than spins (an owner waits
// for Done, stop or its deadline; an idle pump for a push or stop), so the
// graph is acyclic and every interleaving ends.
//
// Properties, each checked on every transition or end state:
//  - every published op resolves exactly once (served ops were applied once);
//  - a Revoked op is never in a batch;
//  - a slot is on the list at most once;
//  - slot.op is written only while its owner holds the slot;
//  - nothing is left unresolved when every actor has finished, nor when only
//    a shutdown could still move an owner (an op no pump can ever reach).
//
// Not covered: Batcher's launcher (take and complete under the batch flag, no
// revoker), quarantine and its fail-wedged edge, load shedding, two pumps
// racing a shard's busy flag, and memory orders (the model is sequentially
// consistent; the TSan jobs check the orders).
#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "batcher/announce.hpp"

namespace {

using batcher::Edge;
using batcher::EdgeRow;
using batcher::EdgeTable;
using batcher::kEdges;
using batcher::OpStatus;

enum Property : int {
  kResolvedOnce,
  kRevokedNeverBatched,
  kLinkedOnce,
  kOpWriteOwned,
  kNothingLost,
  kPropertyCount
};

constexpr const char* kPropertyNames[kPropertyCount] = {
    "every published op resolves exactly once",
    "a Revoked op is never in a batch",
    "a slot is on the list at most once",
    "slot.op is written only while its owner holds the slot",
    "nothing is left unresolved when every actor has finished",
};

// The bound of the search.
struct Bounds {
  std::array<std::uint8_t, 2> ops{2, 1};  // submissions per owner
  std::uint8_t cap = 1;                   // the pump's batch cap, P
};

constexpr std::uint8_t kNone = 0xff;
constexpr int kOwners = 2;
constexpr int kMaxOps = 2;  // per owner; op id = owner * kMaxOps + k

enum OwnerPc : std::uint8_t {
  kStart,         // submit_impl: closed() before publishing
  kWriteOp,       // submit_impl: slot.op = &op
  kLoad,          // publish: status.load(acquire)
  kOwnerReArm,    // publish: try_advance<kReArm>
  kPublishStore,  // publish: advance<kPublish>
  kPush,          // publish: AnnounceList::push
  kWait,          // submit_impl: the wait loop
  kRevokeClose,   // try_revoke after stop
  kRevokeDeadline,// try_revoke after the deadline
  kOwnerRelease,  // submit_impl: slot.op = nullptr; advance<kRelease>
  kOwnerDone,
};

enum PumpPc : std::uint8_t {
  kIdleCheck,    // pump_once: announced_.empty()
  kClaimList,    // pump_once: AnnounceList::claim, oldest_first
  kPumpClaim,    // claim_or_unlink: try_advance<kClaim>
  kPumpUnlink,   // claim_or_unlink: try_advance<kUnlink>
  kReadOp,       // pump_once: working_.push_back(s->op)
  kBop,          // pump_once: ds_.run_batch
  kDone,         // pump_once: the Done loop, advance<kComplete>
  kClosedCheck,  // serve: closed()
  kPumpDone,
};

// Every field is a byte, so a state hashes and compares as raw memory.
struct State {
  struct Slot {
    std::uint8_t status, op, next;
  } slot[kOwners];
  struct Owner {
    std::uint8_t pc, k, deadline, close_tried;
  } owner[kOwners];
  struct Pump {
    std::uint8_t pc, cur, rest, served, n, done_i;
    std::uint8_t collected[kOwners], working[kOwners];
  } pump;
  struct Op {
    std::uint8_t published, applied, resolved, revoked;
  } op[kOwners * kMaxOps];
  std::uint8_t head, stop, closer_done;
};
static_assert(std::has_unique_object_representations_v<State>);

struct StateHash {
  std::size_t operator()(const State& s) const {
    const auto* p = reinterpret_cast<const unsigned char*>(&s);
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < sizeof(State); ++i) {
      h = (h ^ p[i]) * 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};
struct StateEq {
  bool operator()(const State& a, const State& b) const {
    return std::memcmp(&a, &b, sizeof(State)) == 0;
  }
};

struct Result {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  double interleavings = 0;  // exact below 2^53
  std::uint64_t cycles = 0;
  std::array<std::uint64_t, kPropertyCount> violations{};
  std::array<std::string, kPropertyCount> counterexample;

  bool violated(Property p) const { return violations[p] != 0; }
  bool holds() const {
    for (std::uint64_t v : violations) {
      if (v != 0) return false;
    }
    return cycles == 0;
  }
  std::string report() const {
    char count[32];
    std::snprintf(count, sizeof count, "%.4g", interleavings);
    std::string out = std::to_string(states) + " states, " +
                      std::to_string(transitions) + " transitions, " + count +
                      " interleavings, " + std::to_string(cycles) +
                      " cycles\n";
    for (int p = 0; p < kPropertyCount; ++p) {
      if (violations[p] == 0) continue;
      out += "violated (" + std::to_string(violations[p]) + "x): " +
             kPropertyNames[p] + "\n  " + counterexample[p] + "\n";
    }
    return out;
  }
};

// One successor of a state: the step that led there, or the property it
// broke (the path ends there).
struct Step {
  std::string label;
  State next;
  int broke = -1;
};

class Explorer {
 public:
  Explorer(const EdgeTable& table, Bounds bounds)
      : t_(table), bounds_(bounds) {}

  Result run() {
    State init;
    std::memset(&init, 0, sizeof(State));
    for (auto& s : init.slot) s = {static_cast<std::uint8_t>(OpStatus::Free),
                                   kNone, kNone};
    for (int o = 0; o < kOwners; ++o) {
      init.owner[o].pc = bounds_.ops[o] == 0 ? kOwnerDone : kStart;
    }
    init.pump = {kIdleCheck, kNone, kNone, 0, 0, 0, {kNone, kNone},
                 {kNone, kNone}};
    init.head = kNone;
    result_.interleavings = visit(init);
    result_.states = memo_.size();
    return result_;
  }

 private:
  static constexpr double kOnStack = -1;

  // Performs `row` on a model status byte: a CAS moves only from the
  // row's from-state, a store moves unconditionally.
  static bool apply(std::uint8_t& status, const EdgeRow& row) {
    if (row.cas && status != static_cast<std::uint8_t>(row.from)) return false;
    status = static_cast<std::uint8_t>(row.to);
    return true;
  }
  static bool is(std::uint8_t status, OpStatus s) {
    return status == static_cast<std::uint8_t>(s);
  }

  // On the announce list, or in the part of the pump's claim it has not
  // claimed or unlinked yet.
  static bool linked(const State& s, int slot) {
    auto reaches = [&](std::uint8_t from) {
      for (int hops = 0; from != kNone && hops <= kOwners; ++hops) {
        if (from == slot) return true;
        from = s.slot[from].next;
      }
      return false;
    };
    const bool walking = s.pump.pc == kPumpClaim || s.pump.pc == kPumpUnlink;
    return reaches(s.head) || reaches(s.pump.rest) ||
           (walking && s.pump.cur == slot);
  }

  // Claimed by the pump and not yet completed (the Done loop hands the
  // collected slots back in order; done_i is 0 outside it).
  static bool pump_holds(const State& s, int slot) {
    if (s.pump.pc == kReadOp && s.pump.cur == slot) return true;
    for (int i = s.pump.done_i; i < s.pump.n; ++i) {
      if (s.pump.collected[i] == slot) return true;
    }
    return false;
  }

  // After the owner resolved its current op: the next one, or done.
  void next_op(State& s, int o) const {
    State::Owner& w = s.owner[o];
    ++w.k;
    w.pc = w.k == bounds_.ops[o] ? kOwnerDone : kStart;
  }

  // Resolves owner o's current op: by a won revoke or by seeing Done.
  int resolve(State& s, int o, bool revoked) const {
    State::Op& op = s.op[o * kMaxOps + s.owner[o].k];
    if (op.resolved != 0) return kResolvedOnce;
    op.resolved = 1;
    if (revoked) {
      op.revoked = 1;
      if (op.applied != 0 || pump_holds(s, o)) return kRevokedNeverBatched;
    } else if (op.applied != 1) {
      return kResolvedOnce;
    }
    next_op(s, o);
    return -1;
  }

  void owner_steps(const State& s, int o, std::vector<Step>& out) const {
    const State::Owner& w = s.owner[o];
    const std::uint8_t op_id = static_cast<std::uint8_t>(o * kMaxOps + w.k);
    auto step = [&](const char* label) -> Step& {
      out.push_back({std::string("owner ") + std::to_string(o) + ": " + label,
                     s});
      return out.back();
    };
    switch (w.pc) {
      case kStart: {
        Step& st = step("submit_impl: closed()");
        st.next.owner[o].pc = s.stop ? kOwnerDone : kWriteOp;
        break;
      }
      case kWriteOp: {
        Step& st = step("submit_impl: slot.op = &op");
        if (pump_holds(s, o)) st.broke = kOpWriteOwned;
        State::Owner& nw = st.next.owner[o];
        st.next.slot[o].op = op_id;
        st.next.op[op_id].published = 1;
        nw.deadline = (o == 0 && w.k == 0) ? 1 : 0;
        nw.close_tried = 0;
        nw.pc = kLoad;
        break;
      }
      case kLoad: {
        Step& st = step("publish: status.load");
        const bool revoked = is(s.slot[o].status, OpStatus::Revoked);
        st.next.owner[o].pc = revoked ? kOwnerReArm : kPublishStore;
        break;
      }
      case kOwnerReArm: {
        Step& st = step("publish: try_advance<kReArm>");
        const EdgeRow& row = t_[batcher::kReArm];
        if (apply(st.next.slot[o].status, row)) {
          st.next.owner[o].pc = row.push ? kPush : kWait;
        } else {
          st.next.owner[o].pc = kPublishStore;
        }
        break;
      }
      case kPublishStore: {
        Step& st = step("publish: advance<kPublish>");
        const EdgeRow& row = t_[batcher::kPublish];
        apply(st.next.slot[o].status, row);
        st.next.owner[o].pc = row.push ? kPush : kWait;
        break;
      }
      case kPush: {
        Step& st = step("publish: AnnounceList::push");
        if (linked(s, o)) st.broke = kLinkedOnce;
        st.next.slot[o].next = s.head;
        st.next.head = static_cast<std::uint8_t>(o);
        st.next.owner[o].pc = kWait;
        break;
      }
      case kWait:
        if (is(s.slot[o].status, OpStatus::Done)) {
          step("submit_impl: status.load sees Done").next.owner[o].pc =
              kOwnerRelease;
        }
        if (s.stop && !w.close_tried) {
          step("submit_impl: stop_.load").next.owner[o].pc = kRevokeClose;
        }
        if (w.deadline) {
          step("submit_impl: deadline passed").next.owner[o].pc =
              kRevokeDeadline;
        }
        break;
      case kRevokeClose:
      case kRevokeDeadline: {
        Step& st = step("try_revoke: try_advance<kRevoke>");
        if (apply(st.next.slot[o].status, t_[batcher::kRevoke])) {
          st.broke = resolve(st.next, o, /*revoked=*/true);
        } else if (w.pc == kRevokeClose) {
          st.next.owner[o].close_tried = 1;
          st.next.owner[o].pc = kWait;
        } else {
          st.next.owner[o].deadline = 0;
          st.next.owner[o].pc = kWait;
        }
        break;
      }
      case kOwnerRelease: {
        Step& st = step("submit_impl: slot.op = nullptr, advance<kRelease>");
        if (pump_holds(s, o)) st.broke = kOpWriteOwned;
        st.next.slot[o].op = kNone;
        apply(st.next.slot[o].status, t_[batcher::kRelease]);
        if (st.broke < 0) st.broke = resolve(st.next, o, /*revoked=*/false);
        break;
      }
      default:
        break;
    }
  }

  // The pump's next slot of its claim, reading the link before the CAS, or
  // the BOP once the claim is walked or the batch is full.
  static void walk(State& s, std::uint8_t cap) {
    State::Pump& p = s.pump;
    if (p.rest != kNone && p.n < cap) {
      p.cur = p.rest;
      p.rest = s.slot[p.cur].next;
      p.pc = kPumpClaim;
    } else {
      p.cur = kNone;
      p.pc = kBop;
    }
  }

  void pump_steps(const State& s, std::vector<Step>& out) const {
    const State::Pump& p = s.pump;
    auto step = [&](const char* label) -> Step& {
      out.push_back({std::string("pump: ") + label, s});
      return out.back();
    };
    switch (p.pc) {
      case kIdleCheck: {
        Step& st = step("pump_once: announced_.empty()");
        st.next.pump.served = 0;
        st.next.pump.pc = s.head == kNone ? kClosedCheck : kClaimList;
        break;
      }
      case kClaimList: {
        Step& st = step("pump_once: AnnounceList::claim, oldest_first");
        std::uint8_t newest = s.head, oldest = kNone;
        st.next.head = kNone;
        while (newest != kNone) {
          const std::uint8_t next = st.next.slot[newest].next;
          st.next.slot[newest].next = oldest;
          oldest = newest;
          newest = next;
        }
        st.next.pump.rest = oldest;
        walk(st.next, bounds_.cap);
        break;
      }
      case kPumpClaim: {
        Step& st = step("claim_or_unlink: try_advance<kClaim>");
        st.next.pump.pc =
            apply(st.next.slot[p.cur].status, t_[batcher::kClaim]) ? kReadOp
                                                                  : kPumpUnlink;
        break;
      }
      case kPumpUnlink: {
        Step& st = step("claim_or_unlink: try_advance<kUnlink>");
        if (apply(st.next.slot[p.cur].status, t_[batcher::kUnlink])) {
          walk(st.next, bounds_.cap);
        } else {
          st.next.pump.pc = kPumpClaim;
        }
        break;
      }
      case kReadOp: {
        Step& st = step("pump_once: working_.push_back(s->op)");
        State::Pump& np = st.next.pump;
        np.working[np.n] = s.slot[p.cur].op;
        np.collected[np.n] = p.cur;
        ++np.n;
        walk(st.next, bounds_.cap);
        break;
      }
      case kBop: {
        Step& st = step("pump_once: ds_.run_batch");
        State::Pump& np = st.next.pump;
        if (p.n == 0) {  // only unlinked records: pump_once returns
          np.pc = p.served ? kIdleCheck : kClosedCheck;
          break;
        }
        for (int i = 0; i < p.n; ++i) {
          if (p.working[i] == kNone) continue;
          State::Op& op = st.next.op[p.working[i]];
          if (op.revoked) st.broke = kRevokedNeverBatched;
          if (op.applied != 0 && st.broke < 0) st.broke = kResolvedOnce;
          ++op.applied;
        }
        np.done_i = 0;
        np.pc = kDone;
        break;
      }
      case kDone: {
        Step& st = step("pump_once: Done loop, advance<kComplete>");
        State::Pump& np = st.next.pump;
        apply(st.next.slot[p.collected[p.done_i]].status,
              t_[batcher::kComplete]);
        if (++np.done_i < np.n) break;
        np.n = 0;
        np.done_i = 0;
        np.served = 1;
        np.collected[0] = np.collected[1] = kNone;
        np.working[0] = np.working[1] = kNone;
        if (np.rest != kNone) {
          walk(st.next, bounds_.cap);  // the claim's next batch
        } else {
          np.pc = kIdleCheck;  // pump_once returned true: serve loops
        }
        break;
      }
      case kClosedCheck:
        if (s.stop) {
          step("serve: closed() returns").next.pump.pc = kPumpDone;
        } else if (s.head != kNone) {
          step("serve: closed() is false, poll again").next.pump.pc =
              kIdleCheck;
        }
        break;
      default:
        break;
    }
  }

  void violate(int p, const std::string& last) {
    ++result_.violations[p];
    if (!result_.counterexample[p].empty()) return;
    std::string trace;
    for (const std::string& label : path_) trace += label + " -> ";
    result_.counterexample[p] = trace + last;
  }

  // Checks a state no actor can move from, or one only a shutdown can.
  void check_end(const State& s, bool everyone_stuck) {
    bool owners_done = true;
    for (const State::Owner& w : s.owner) owners_done &= w.pc == kOwnerDone;
    if (!owners_done) {
      violate(kNothingLost, everyone_stuck
                                ? "(every actor blocked, an owner unresolved)"
                                : "(an owner waits on an op only a shutdown "
                                  "can resolve)");
      return;
    }
    if (!everyone_stuck) return;
    for (const State::Op& op : s.op) {
      if (op.published && op.resolved != 1) {
        violate(kNothingLost, "(a published op never resolved)");
        return;
      }
    }
  }

  // Returns the number of complete interleavings from `s`.
  double visit(const State& s) {
    auto [it, inserted] = memo_.try_emplace(s, kOnStack);
    if (!inserted) {
      if (it->second == kOnStack) {
        ++result_.cycles;
        return 0;
      }
      return it->second;
    }
    std::vector<Step> steps;
    for (int o = 0; o < kOwners; ++o) owner_steps(s, o, steps);
    pump_steps(s, steps);
    const bool others_blocked = steps.empty();
    if (!s.closer_done) {
      Step st{"closer: shutdown, stop_.store(true)", s};
      st.next.stop = 1;
      st.next.closer_done = 1;
      steps.push_back(st);
    }
    double paths = 0;
    if (steps.empty()) {
      check_end(s, /*everyone_stuck=*/true);
      paths = 1;
    } else if (others_blocked) {
      check_end(s, /*everyone_stuck=*/false);
    }
    for (const Step& st : steps) {
      ++result_.transitions;
      if (st.broke >= 0) {
        violate(st.broke, st.label);
        ++paths;
        continue;
      }
      path_.push_back(st.label);
      paths += visit(st.next);
      path_.pop_back();
    }
    memo_[s] = paths;
    return paths;
  }

  const EdgeTable& t_;
  const Bounds bounds_;
  Result result_;
  std::vector<std::string> path_;
  std::unordered_map<State, double, StateHash, StateEq> memo_;
};

Result explore(const EdgeTable& table, Bounds bounds = {}) {
  return Explorer(table, bounds).run();
}

TEST(IngressExplorer, EveryInterleavingOfTheRealTableHoldsEveryProperty) {
  const auto t0 = std::chrono::steady_clock::now();
  const Result r = explore(kEdges);
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  std::printf("IngressExplorer (owners submit 2 and 1 ops, P = 1): %s"
              "explored in %.3f s\n",
              r.report().c_str(), secs);
  EXPECT_TRUE(r.holds()) << r.report();
  EXPECT_GT(r.states, 1000u);
  EXPECT_LT(secs, 5.0);
}

TEST(IngressExplorer, WiderBatchesAndTwoOpsPerOwnerHoldEveryProperty) {
  Bounds bounds;
  bounds.ops = {2, 2};
  bounds.cap = 2;
  const Result r = explore(kEdges, bounds);
  std::printf("IngressExplorer (owners submit 2 and 2 ops, P = 2): %s",
              r.report().c_str());
  EXPECT_TRUE(r.holds()) << r.report();
}

TEST(IngressExplorer, IsDeterministic) {
  const Result a = explore(kEdges);
  const Result b = explore(kEdges);
  EXPECT_EQ(a.states, b.states);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.interleavings, b.interleavings);
  EdgeTable plain_revoke = kEdges;
  plain_revoke[batcher::kRevoke].cas = false;
  EXPECT_EQ(explore(plain_revoke).report(), explore(plain_revoke).report());
}

// (a) The pump skips a Revoked slot without freeing it: the owner re-arms a
// slot no list holds, and its op is lost.
TEST(IngressExplorer, DroppedUnlinkLosesAnOp) {
  EdgeTable t = kEdges;
  t[batcher::kUnlink].to = OpStatus::Revoked;
  const Result r = explore(t);
  std::printf("%s", r.report().c_str());
  EXPECT_TRUE(r.violated(kNothingLost)) << r.report();
}

// (b) A revoke that does not race the claim by CAS takes back an op the pump
// already holds.
TEST(IngressExplorer, PlainStoreRevokeAppliesARevokedOp) {
  EdgeTable t = kEdges;
  t[batcher::kRevoke].cas = false;
  const Result r = explore(t);
  std::printf("%s", r.report().c_str());
  EXPECT_TRUE(r.violated(kRevokedNeverBatched) || r.violated(kResolvedOnce))
      << r.report();
}

// (c) The launcher's take, which no revoker races, used for the pump's
// claim: the pump batches a slot its owner revoked.
TEST(IngressExplorer, TakeRowAsClaimAppliesARevokedOp) {
  EdgeTable t = kEdges;
  t[batcher::kClaim] = t[batcher::kTake];
  const Result r = explore(t);
  std::printf("%s", r.report().c_str());
  EXPECT_TRUE(r.violated(kRevokedNeverBatched) || r.violated(kResolvedOnce))
      << r.report();
}

// (d) A re-arm that also pushes links a slot that is still linked.
TEST(IngressExplorer, PushingReArmLinksASlotTwice) {
  EdgeTable t = kEdges;
  t[batcher::kReArm].push = true;
  const Result r = explore(t);
  std::printf("%s", r.report().c_str());
  EXPECT_TRUE(r.violated(kLinkedOnce)) << r.report();
}

// Read-modify-writes one op pays along `path`, a walk of the table from Free
// back to Free: one per CAS row and one per push.
int read_modify_writes(std::initializer_list<Edge> path) {
  OpStatus at = OpStatus::Free;
  int rmw = 0;
  for (Edge e : path) {
    const EdgeRow& row = kEdges[e];
    EXPECT_EQ(row.from, at) << row.name << " does not follow the path";
    at = row.to;
    rmw += (row.cas ? 1 : 0) + (row.push ? 1 : 0);
  }
  EXPECT_EQ(at, OpStatus::Free) << "the path does not end Free";
  return rmw;
}

TEST(IngressTable, ReadModifyWritesPerPath) {
  using batcher::kClaim, batcher::kComplete, batcher::kPublish,
      batcher::kReArm, batcher::kRelease, batcher::kRevoke, batcher::kTake,
      batcher::kUnlink;
  // Batcher op: the push; the launcher's take and complete are stores.
  EXPECT_EQ(read_modify_writes({kPublish, kTake, kComplete, kRelease}), 1);
  // Served external op: the push and the pump's claim.
  EXPECT_EQ(read_modify_writes({kPublish, kClaim, kComplete, kRelease}), 2);
  // Revoked external op: the push, the owner's revoke, the pump's unlink.
  EXPECT_EQ(read_modify_writes({kPublish, kRevoke, kUnlink}), 3);
  // Re-armed op: a served op plus the revoke and the re-arm.
  EXPECT_EQ(read_modify_writes(
                {kPublish, kRevoke, kReArm, kClaim, kComplete, kRelease}),
            4);
}

}  // namespace
