#include "runtime/worker.hpp"

#include "runtime/scheduler.hpp"
#include "support/backoff.hpp"
#include "trace/bound_ledger.hpp"
#include "trace/trace.hpp"

namespace batcher::rt {

using hooks::EventId;

namespace {
thread_local Worker* t_current_worker = nullptr;
}  // namespace

Worker* Worker::current() { return t_current_worker; }

void Worker::run_task(Task* task) {
  const TaskKind task_kind = task->kind();
#if BATCHER_AUDIT
  // Fault injection: kill a joined core task before it runs, as if its
  // closure threw immediately.  Join-less frames (the scheduler root) are
  // exempt — their error path is Scheduler::run's own wrapper.  The task
  // never runs, so it emits no kTaskBegin: neither consumer sees it and the
  // ring holds no task window without its kTaskEnd.
  if (task_kind == TaskKind::Core && task->has_join() &&
      hooks::fire(hooks::test_faults().throw_in_core_task)) {
    task->fail_and_release(std::make_exception_ptr(
        hooks::InjectedFault("injected fault: core task failed before running")));
    return;
  }
#endif
  hooks::emit({EventId::kTaskBegin, id_, task_kind, kind_});
  KindScope scope(*this, task_kind);
  task->run_and_release();
  stats_.tasks_executed.bump();
  hooks::emit({EventId::kTaskEnd, id_, task_kind});
}

Task* Worker::try_steal(TaskKind kind) {
  const unsigned P = sched_->num_workers();
  // Single-worker schedulers have nobody to steal from: return before the
  // stats bump, the hook and the trace record, so P=1 runs (and the trapped
  // worker's steal-spin in batchify) pay nothing for attempts that cannot
  // succeed.  Trace/stats stay reconciled — neither side sees the attempt.
  if (P <= 1) return nullptr;
  if (kind == TaskKind::Core) {
    stats_.core_steal_attempts.bump();
  } else {
    stats_.batch_steal_attempts.bump();
  }
  // Batch-deque steals get last-successful-victim affinity: batch work is
  // spawned by the one active launcher (Invariant 1), so the victim that
  // fed us last is overwhelmingly likely to feed us again — re-probing it
  // skips the RNG and keeps trapped workers off other workers' (empty)
  // deque cache lines.  A miss drops the affinity and falls back to the
  // uniform random victim.
  unsigned victim;
  if (kind == TaskKind::Batch && last_batch_victim_ != kNoVictim) {
    victim = last_batch_victim_;
  } else {
    victim = static_cast<unsigned>(rng_.next_below(P - 1));
    if (victim >= id_) ++victim;  // uniform over workers other than self
  }
  Task* task = sched_->worker(victim).deque(kind).steal();
  if (kind == TaskKind::Batch) {
    last_batch_victim_ = task != nullptr ? victim : kNoVictim;
  }
  hooks::emit({EventId::kSteal, id_, kind, kind_, nullptr,
               task != nullptr ? 1u : 0u});
  if (task != nullptr) stats_.steals_succeeded.bump();
  return task;
}

Task* Worker::steal_alternating() {
  // §4: the k-th steal attempt of a free worker targets core deques when k is
  // even, batch deques when k is odd.
  const TaskKind kind =
      (steal_tick_++ % 2 == 0) ? TaskKind::Core : TaskKind::Batch;
  hooks::emit({EventId::kAlternatingSteal, id_, kind, kind_});
  return try_steal(kind);
}

void Worker::wait(JoinCounter& join) {
  const TaskKind waiting_kind = kind_;
  // The caller's strand is paused (parallel_invoke) for this whole window:
  // any time not inside a helped task's own kTaskBegin/End pair is steal
  // attempts and backoff, which attribution charges to the steal bucket.
  // One enabled() read gates both records, so a session that opens mid-wait
  // records no unpaired end.
  const bool traced = trace::enabled();
  if (traced) [[unlikely]] hooks::emit({EventId::kJoinWaitBegin, id_});
  Backoff backoff;
  while (!join.done()) {
    // Drain our own deque for the dag we are part of first: those tasks are
    // the children whose completion the join is (usually) waiting on.
    Task* task = pop(waiting_kind);
    if (task == nullptr) {
      if (waiting_kind == TaskKind::Batch) {
        // Inside a batch dag, only batch work may be executed (§4).
        task = try_steal(TaskKind::Batch);
      } else {
        // A free worker helps anywhere, alternating between deque kinds.
        task = pop(TaskKind::Batch);
        if (task == nullptr) task = steal_alternating();
      }
    }
    if (task != nullptr) {
      stats_.join_help_runs.bump();
      run_task(task);
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  if (traced) [[unlikely]] hooks::emit({EventId::kJoinWaitEnd, id_});
}

bool Worker::help_batch_once() {
  Task* task = pop(TaskKind::Batch);
  if (task == nullptr) task = try_steal(TaskKind::Batch);
  if (task == nullptr) return false;
  run_task(task);
  return true;
}

void Worker::main_loop() {
  t_current_worker = this;
  FramePool::set_tls(&frame_pool_);
  // Strand segments closed on this thread accrue measured T1 into this
  // worker's stats block for the rest of the thread's life.
  trace::ledger::set_thread_work_sink(&stats_.work_ns);
  hooks::emit({EventId::kWorkerStart, id_});
  Backoff backoff;
  while (!sched_->stopping()) {
    if (!sched_->run_active()) {
      // Park between runs.  The parked count (guarded by the scheduler
      // mutex) lets run() detect the all-parked quiescent point at which
      // retired deque buffers are safe to reclaim.  Flushing here publishes
      // the frame counts batched during the run, so all-parked snapshots
      // satisfy frames_allocated == frames_freed exactly.
      frame_pool_.flush_stats();
      hooks::emit({EventId::kParkBegin, id_});
      std::unique_lock<std::mutex> lock(sched_->mutex_);
      ++sched_->parked_workers_;
      sched_->caller_cv_.notify_all();
      sched_->workers_cv_.wait(lock, [this] {
        return sched_->stopping() || sched_->run_active();
      });
      --sched_->parked_workers_;
      lock.unlock();
      hooks::emit({EventId::kParkEnd, id_});
      continue;
    }
    hooks::emit({EventId::kWorkerLoop, id_, TaskKind::Core, kind_});
    Task* task = sched_->take_root();
    if (task == nullptr) task = pop(TaskKind::Batch);
    if (task == nullptr) task = pop(TaskKind::Core);
    if (task == nullptr) task = steal_alternating();
    if (task != nullptr) {
      run_task(task);
      backoff.reset();
    } else {
      backoff.pause();
    }
  }
  // The stop flag can interrupt the loop without another park, so flush once
  // more: the scheduler's destructor reads stats after joining this thread.
  frame_pool_.flush_stats();
  hooks::emit({EventId::kWorkerExit, id_});
  trace::ledger::set_thread_work_sink(nullptr);
  FramePool::set_tls(nullptr);
  t_current_worker = nullptr;
}

}  // namespace batcher::rt
