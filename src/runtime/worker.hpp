// Per-worker state and the scheduling loops.
//
// A worker owns two Chase–Lev deques (core and batch — Invariant 3), a
// deterministic RNG for victim selection, and a steal-attempt counter that
// drives the paper's alternating-steal policy: the k-th steal attempt of a
// *free* worker targets a random victim's core deque when k is even and its
// batch deque when k is odd (§4).
#pragma once

#include <atomic>
#include <cstdint>

#include "runtime/deque.hpp"
#include "runtime/frame_pool.hpp"
#include "runtime/schedule_hooks.hpp"
#include "runtime/stats.hpp"
#include "runtime/task.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace batcher::rt {

class Scheduler;

class alignas(kCacheLineSize) Worker {
 public:
  Worker(Scheduler* scheduler, unsigned id, std::uint64_t seed)
      : sched_(scheduler), id_(id), rng_(seed), frame_pool_(&stats_, id) {}

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  unsigned id() const { return id_; }
  Scheduler* scheduler() const { return sched_; }

  // The dag the currently-assigned node belongs to.  Spawns inherit it, so
  // core tasks push to core deques and batch tasks to batch deques.
  TaskKind current_kind() const { return kind_; }

  // Owner-side deque operations.
  void push(Task* task) {
    hooks::emit({hooks::EventId::kPush, id_, task->kind(), kind_});
    deques_[static_cast<int>(task->kind())].push(task);
  }
  Task* pop(TaskKind kind) {
    Task* task = deques_[static_cast<int>(kind)].pop();
    hooks::emit({hooks::EventId::kPop, id_, kind, kind_, nullptr,
                 task != nullptr ? 1u : 0u});
    return task;
  }

  WorkDeque& deque(TaskKind kind) { return deques_[static_cast<int>(kind)]; }
  const WorkDeque& deque(TaskKind kind) const {
    return deques_[static_cast<int>(kind)];
  }

  // Executes one task frame, temporarily switching the worker's kind to the
  // task's dag.  Restores the previous kind afterwards, so a trapped worker
  // that helps with batch work returns to its suspended core context.
  void run_task(Task* task);

  // Blocks (helping) until the join is satisfied.  In core context the worker
  // behaves as a free worker: it drains its own deque for the waited dag and
  // otherwise steals with the alternating policy.  In batch context it only
  // touches batch deques, as the paper's rules require.
  void wait(JoinCounter& join);

  // One scheduling attempt of a *trapped* worker (used by batchify): pop own
  // batch deque, else steal from a random victim's batch deque.  Runs the
  // task if one was found.  Returns true if any task was executed.
  bool help_batch_once();

  // Steal helpers.  Every call counts as one steal attempt in the stats.
  Task* try_steal(TaskKind kind);
  Task* steal_alternating();

  // Runs `fn` inline with the worker temporarily switched to `kind`, so that
  // everything `fn` spawns lands on the corresponding deque.  Used by the
  // BATCHER extension to execute LAUNCHBATCH as a batch-dag root (§4).
  // Exception-safe: the previous kind is restored even if `fn` throws.
  template <typename F>
  void run_inline(TaskKind kind, F&& fn) {
    KindScope scope(*this, kind);
    fn();
  }

  // Top-level loop for scheduler-owned threads.
  void main_loop();

  WorkerStats& stats() { return stats_; }
  const WorkerStats& stats() const { return stats_; }

  // The worker's task-frame pool (frame_pool.hpp).  Spawns on this worker's
  // thread allocate from it; any thread may release frames back into it.
  FramePool& frame_pool() { return frame_pool_; }
  const FramePool& frame_pool() const { return frame_pool_; }

  // Thread-local accessor: the worker the calling thread is, or nullptr.
  static Worker* current();

 private:
  friend class Scheduler;

  // Restores the worker's dag kind on scope exit, including unwinding.
  struct KindScope {
    KindScope(Worker& w, TaskKind kind) : w_(w), saved_(w.kind_) {
      w_.kind_ = kind;
    }
    ~KindScope() { w_.kind_ = saved_; }
    KindScope(const KindScope&) = delete;
    KindScope& operator=(const KindScope&) = delete;
    Worker& w_;
    const TaskKind saved_;
  };

  static constexpr unsigned kNoVictim = ~0u;

  Scheduler* const sched_;
  const unsigned id_;
  Xoshiro256 rng_;
  std::uint64_t steal_tick_ = 0;
  // Last victim a batch-deque steal succeeded against (kNoVictim if the
  // last attempt missed).  See try_steal: batch work comes from the unique
  // active launcher, so successful batch-steal victims repeat.
  unsigned last_batch_victim_ = kNoVictim;
  TaskKind kind_ = TaskKind::Core;
  WorkerStats stats_;
  FramePool frame_pool_;  // after stats_: the pool bumps into it
  WorkDeque deques_[kNumTaskKinds];
};

}  // namespace batcher::rt
