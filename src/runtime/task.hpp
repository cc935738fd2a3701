// Task frames and join counters for the fork/join runtime.
//
// The runtime is *child-stealing*: `spawn` allocates a small task frame
// holding the child closure and pushes it on the spawning worker's deque; the
// parent continues inline and later blocks (helping) at a join.  This is the
// portable-C++ stand-in for Cilk-5's continuation stealing; DESIGN.md §5
// explains why it preserves the BATCHER invariants.
//
// Frames come from the spawning worker's FramePool (frame_pool.hpp), not
// global `new`: the steady-state spawn/join hot path never touches the
// global allocator, and a thief that finishes a stolen frame returns it to
// the owner's remote-free stack instead of cross-thread `delete`-ing it
// (DESIGN.md §10).
//
// Exceptions: a closure that throws never unwinds a worker's scheduling loop.
// The frame catches the exception and records it in the join (first exception
// wins; sibling tasks drain normally so no child ever outlives the spawner's
// stack frame), and the *spawner* rethrows at the join point.  DESIGN.md §8
// has the full propagation rules.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <utility>

#include "runtime/frame_pool.hpp"
#include "runtime/schedule_hooks.hpp"
#include "support/config.hpp"

namespace batcher::rt {

// Counts outstanding children of a fork.  The parent waits (while helping)
// until the count drops to zero.  Counts only reach zero once per join.
class JoinCounter {
 public:
  explicit JoinCounter(std::int64_t n) : count_(n) {}

  JoinCounter(const JoinCounter&) = delete;
  JoinCounter& operator=(const JoinCounter&) = delete;

  void add(std::int64_t n = 1) { count_.fetch_add(n, std::memory_order_relaxed); }

  // Called by the child *after* its closure has been destroyed, so that the
  // parent never resumes while a child still references its stack frame.
  void finish() { count_.fetch_sub(1, std::memory_order_release); }

  bool done() const { return count_.load(std::memory_order_acquire) <= 0; }

  // Records the first exception thrown by any arm of this join.  Later
  // captures are dropped: siblings keep running (nothing cancels them) and
  // the spawner rethrows the winner at the join point.
  //
  // Two flags, in two roles: `claimed_` (relaxed CAS) only elects the single
  // writer of `error_`; `failed_` (store-release) is set *after* the write
  // and is the one readers see.  Claiming before publishing used to be one
  // acq_rel CAS, but that let a racing failed() reader observe true while
  // `error_` was still null — and rethrow_if_failed would have handed
  // std::rethrow_exception a null pointer (UB).  The release/acquire pair on
  // `failed_` now publishes `error_` to any reader that sees the flag.
  void capture(std::exception_ptr error) noexcept {
    BATCHER_DASSERT(error != nullptr, "capture needs a real exception");
    bool expected = false;
    if (claimed_.compare_exchange_strong(expected, true,
                                         std::memory_order_relaxed)) {
      error_ = std::move(error);
      failed_.store(true, std::memory_order_release);
    }
  }

  bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }

  // Bound-ledger span fold: a finishing child max-folds its path (in ns and
  // in task frames — each component independently) into the join, and the
  // spawner resumes its own strand from the folded values.  Relaxed is
  // enough: the finish()/done() release/acquire pair that hands the join
  // back to the spawner already orders these writes before the reads.
  void fold_span(std::uint64_t ns, std::uint64_t tasks) noexcept {
    fold_max(span_ns_, ns);
    fold_max(span_tasks_, tasks);
  }
  std::uint64_t span_ns() const noexcept {
    return span_ns_.load(std::memory_order_relaxed);
  }
  std::uint64_t span_tasks() const noexcept {
    return span_tasks_.load(std::memory_order_relaxed);
  }

  // Rethrows the captured exception, if any.  Call only after done().
  void rethrow_if_failed() {
    if (failed()) {
      BATCHER_ASSERT(error_ != nullptr,
                     "failed() implies a published exception");
      std::rethrow_exception(error_);
    }
  }

 private:
  static void fold_max(std::atomic<std::uint64_t>& cell,
                       std::uint64_t v) noexcept {
    std::uint64_t cur = cell.load(std::memory_order_relaxed);
    while (v > cur &&
           !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> count_;
  std::atomic<bool> claimed_{false};  // elects the error_ writer, nothing more
  std::atomic<bool> failed_{false};   // readers' flag; publishes error_
  std::exception_ptr error_;
  std::atomic<std::uint64_t> span_ns_{0};     // max child path folded in
  std::atomic<std::uint64_t> span_tasks_{0};
};

// Type-erased task frame.  Uses a function-pointer vtable-of-two instead of a
// virtual so the whole frame stays one allocation with no RTTI.
class Task {
 public:
  using InvokeFn = void (*)(Task*);
  using DestroyFn = void (*)(Task*);

  Task(InvokeFn invoke, DestroyFn destroy, JoinCounter* join, TaskKind kind)
      : invoke_(invoke), destroy_(destroy), join_(join), kind_(kind) {}

  // Runs the closure, destroys the frame, then releases the join.  The caller
  // must not touch `this` afterwards.  A throwing closure is captured into
  // the join (rethrown by the spawner); only a join-less frame — the
  // scheduler root, whose wrapper catches everything itself — lets the
  // exception continue unwinding.
  void run_and_release() {
    JoinCounter* join = join_;
    try {
      invoke_(this);  // executes and deletes the frame
    } catch (...) {
      if (join == nullptr) throw;
      join->capture(std::current_exception());
    }
    if (join != nullptr) join->finish();
  }

  // Destroys the frame *without* running the closure and releases the join
  // with `error` recorded, exactly as if the closure had thrown immediately.
  // Used by fault injection to model a task that dies before any effect.
  void fail_and_release(std::exception_ptr error) {
    JoinCounter* join = join_;
    destroy_(this);
    if (join != nullptr) {
      join->capture(std::move(error));
      join->finish();
    }
  }

  TaskKind kind() const { return kind_; }
  bool has_join() const { return join_ != nullptr; }

 private:
  const InvokeFn invoke_;
  const DestroyFn destroy_;
  JoinCounter* const join_;
  const TaskKind kind_;
};

template <typename F>
class ClosureTask final : public Task {
 public:
  ClosureTask(F&& fn, JoinCounter* join, TaskKind kind)
      : Task(&ClosureTask::invoke, &ClosureTask::destroy, join, kind),
        fn_(std::move(fn)) {}

 private:
  static void invoke(Task* base) {
    auto* self = static_cast<ClosureTask*>(base);
    F fn = std::move(self->fn_);
    // Return the frame before running: the closure may run long, and a
    // stolen frame goes back to its owner's pool while the thief works.
    self->~ClosureTask();
    FramePool::release_frame(self);
    fn();
  }

  static void destroy(Task* base) {
    auto* self = static_cast<ClosureTask*>(base);
    self->~ClosureTask();
    FramePool::release_frame(self);
  }

  F fn_;
};

template <typename F>
Task* make_task(F&& fn, JoinCounter* join, TaskKind kind) {
  using Decayed = std::decay_t<F>;
  using Frame = ClosureTask<Decayed>;
  void* mem = FramePool::allocate_frame(sizeof(Frame), alignof(Frame));
  try {
    return ::new (mem) Frame(Decayed(std::forward<F>(fn)), join, kind);
  } catch (...) {
    FramePool::release_frame(mem);  // closure copy/move threw
    throw;
  }
}

}  // namespace batcher::rt
