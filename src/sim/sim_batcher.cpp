#include "sim/sim_batcher.hpp"

#include <vector>

#include "batcher/announce.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace batcher::sim {

namespace {

// A node reference tags which dag it lives in.
struct Ref {
  NodeId id = kNoNode;
  bool batch = false;  // false = core dag, true = active batch dag
  bool valid() const { return id != kNoNode; }
};

struct SimWorker {
  std::vector<NodeId> core_deque;   // back = bottom
  std::vector<NodeId> batch_deque;
  Ref assigned;
  OpStatus status = OpStatus::Free;
  NodeId trapped_node = kNoNode;  // the suspended core ds node
  std::uint64_t steal_tick = 0;
  std::int64_t wait_steps = 0;    // steps spent trapped with empty batch deque
  std::int64_t completions_at_trap = 0;  // global batch count when trapped
};

// The single active batch (Invariant 1).
struct ActiveBatch {
  Dag dag;
  std::vector<std::uint8_t> indeg;
  std::int64_t executed = 0;
  // Node ids in [bop_lo, bop_hi) are BOP work; everything else is
  // setup/cleanup overhead.
  std::int64_t bop_lo = 0;
  std::int64_t bop_hi = 0;
  std::vector<unsigned> members;  // worker ids whose ops are in this batch
  bool active = false;
  bool counts_as_big = false;     // τ-long, τ-wide, popular, or successor of one

  bool is_setup(NodeId id) const {
    const auto i = static_cast<std::int64_t>(id);
    return i < bop_lo || i >= bop_hi;
  }
};

}  // namespace

SimResult simulate_batcher(const Dag& core, BatchCostModel& model,
                           const BatcherSimConfig& config) {
  const unsigned P = config.workers;
  BATCHER_ASSERT(P >= 1, "need at least one worker");
  BATCHER_ASSERT(core.validate(), "invalid core dag");

  const std::size_t n = core.size();
  std::vector<std::uint8_t> core_indeg(core.join_degree.begin(),
                                       core.join_degree.end());

  std::vector<SimWorker> ws(P);
  ws[0].assigned = Ref{core.root, false};

  ActiveBatch batch;
  Xoshiro256 rng(config.seed);
  SimResult res;
  std::size_t core_executed = 0;

  // §5 classification threshold: default to the data-structure span s(n).
  const std::int64_t tau =
      config.tau > 0
          ? config.tau
          : model.batch_cost(static_cast<std::int64_t>(P)).span;
  res.tau = tau;
  bool prev_batch_was_big_core = false;  // own flags only, for adjacency
  std::int64_t batch_completions = 0;

  // --- helpers ------------------------------------------------------------

  // Completes core node v on worker w: enables successors per the dag.
  auto complete_core_node = [&](SimWorker& w, NodeId v) {
    ++core_executed;
    NodeId enabled[2];
    int ne = 0;
    for (NodeId c : {core.child0[v], core.child1[v]}) {
      if (c != kNoNode && --core_indeg[c] == 0) enabled[ne++] = c;
    }
    if (ne >= 1) {
      w.assigned = Ref{enabled[0], false};
      if (ne == 2) w.core_deque.push_back(enabled[1]);
    } else {
      w.assigned = Ref{};
    }
  };

  auto complete_batch_node = [&](SimWorker& w, NodeId v) {
    ++batch.executed;
    NodeId enabled[2];
    int ne = 0;
    for (NodeId c : {batch.dag.child0[v], batch.dag.child1[v]}) {
      if (c != kNoNode && --batch.indeg[c] == 0) enabled[ne++] = c;
    }
    if (ne >= 1) {
      w.assigned = Ref{enabled[0], true};
      if (ne == 2) w.batch_deque.push_back(enabled[1]);
    } else {
      w.assigned = Ref{};
    }
  };

  // Batch completion: flip member statuses to done, clear the flag.
  auto finish_batch_if_done = [&]() {
    if (batch.active &&
        batch.executed == static_cast<std::int64_t>(batch.dag.size())) {
      for (unsigned m : batch.members) {
        BATCHER_DASSERT(ws[m].status == OpStatus::Executing,
                        "member must be executing");
        ws[m].status = OpStatus::Done;
      }
      model.on_commit(static_cast<std::int64_t>(batch.members.size()));
      batch.active = false;
      batch.members.clear();
      ++batch_completions;
    }
  };

  // Launch: collect every pending op, build setup+BOP+cleanup dag, seed the
  // launcher's batch deque with its root.
  auto launch_batch = [&](SimWorker& launcher) {
    BATCHER_DASSERT(!batch.active, "Invariant 1");
    batch.dag = Dag{};
    batch.indeg.clear();
    batch.executed = 0;
    batch.members.clear();
    const std::int64_t cap = config.max_ops_per_batch > 0
                                 ? config.max_ops_per_batch
                                 : static_cast<std::int64_t>(P);
    const unsigned start = static_cast<unsigned>(&launcher - ws.data());
    for (unsigned off = 0; off < P; ++off) {
      const unsigned q = (start + off) % P;  // launcher's own op goes first
      if (static_cast<std::int64_t>(batch.members.size()) >= cap) break;
      if (ws[q].status == OpStatus::Pending) {
        ws[q].status = OpStatus::Executing;
        batch.members.push_back(q);
      }
    }
    const std::int64_t k = static_cast<std::int64_t>(batch.members.size());
    BATCHER_ASSERT(k >= 1 && k <= static_cast<std::int64_t>(P), "Invariant 2");

    Segment whole;
    const WorkSpan cost = model.batch_cost(k);
    // §5 batch taxonomy, measured live.  "Big" also covers the successor of
    // a long/wide/popular batch; the analysis additionally charges the
    // *predecessor*, which cannot be known at launch — the proof handles
    // that by tripling, the measurement reports the live classification.
    const bool is_long = cost.span > tau;
    const bool is_wide = cost.work > static_cast<std::int64_t>(P) * tau;
    const bool is_popular = k > static_cast<std::int64_t>(P) / 4;
    const bool big_core = is_long || is_wide || is_popular;
    if (is_long) {
      ++res.long_batches;
      res.trimmed_span += cost.span;
    }
    if (is_wide) ++res.wide_batches;
    if (is_popular) ++res.popular_batches;
    batch.counts_as_big = big_core || prev_batch_was_big_core;
    if (batch.counts_as_big) ++res.big_batches;
    prev_batch_was_big_core = big_core;
    if (config.setup_overhead) {
      // Setup: Θ(P) work, Θ(lg P) span; cleanup the same (Fig. 4).
      const Segment setup = build_fork_join(batch.dag, P, 1);
      batch.bop_lo = batch.dag.work();
      const Segment bop = build_with_work_span(batch.dag, cost.work, cost.span);
      batch.bop_hi = batch.dag.work();
      const Segment cleanup = build_fork_join(batch.dag, P, 1);
      batch.dag.add_edge(setup.last, bop.first);
      batch.dag.add_edge(bop.last, cleanup.first);
      whole = Segment{setup.first, cleanup.last};
    } else {
      batch.bop_lo = 0;
      whole = build_with_work_span(batch.dag, cost.work, cost.span);
      batch.bop_hi = batch.dag.work();
    }
    batch.dag.root = whole.first;
    batch.indeg.assign(batch.dag.join_degree.begin(),
                       batch.dag.join_degree.end());
    batch.active = true;
    ++res.batches;
    res.batch_ops += k;
    if (k > res.max_batch_size) res.max_batch_size = k;
    launcher.batch_deque.push_back(batch.dag.root);
  };

  auto steal_from = [&](SimWorker& thief, bool batch_deque) -> bool {
    ++res.steal_attempts;
    if (batch.active && batch.counts_as_big) {
      ++res.big_batch_steals;
    } else if (thief.status != OpStatus::Free) {
      ++res.trapped_steals;
    } else {
      ++res.free_steals;
    }
    if (P == 1) return false;
    const unsigned self = static_cast<unsigned>(&thief - ws.data());
    unsigned victim = static_cast<unsigned>(rng.next_below(P - 1));
    if (victim >= self) ++victim;
    auto& deque = batch_deque ? ws[victim].batch_deque : ws[victim].core_deque;
    if (deque.empty()) return false;
    const NodeId v = deque.front();
    deque.erase(deque.begin());
    thief.assigned = Ref{v, batch_deque};
    ++res.steals_succeeded;
    return true;
  };

  auto free_steal = [&](SimWorker& w) {
    bool target_batch;
    switch (config.policy) {
      case StealPolicy::Alternating:
        target_batch = (w.steal_tick++ % 2 == 1);
        break;
      case StealPolicy::CoreOnly:
        target_batch = false;
        break;
      case StealPolicy::BatchOnly:
        target_batch = true;
        break;
      case StealPolicy::UniformRandom:
      default:
        target_batch = (rng.next() & 1u) != 0;
        break;
    }
    steal_from(w, target_batch);
  };

  std::int64_t pending_count = 0;

  // --- main loop ----------------------------------------------------------

  while (core_executed < n) {
    ++res.makespan;
    BATCHER_ASSERT(res.makespan < (std::int64_t{1} << 40),
                   "simulation does not terminate");
    for (unsigned p = 0; p < P; ++p) {
      SimWorker& w = ws[p];

      // Trapped workers: only batch work (Fig. 3).
      if (w.status != OpStatus::Free) {
        ++res.trapped_steps;
        if (w.assigned.valid()) {
          BATCHER_DASSERT(w.assigned.batch, "trapped workers run batch nodes");
          const bool setup = batch.is_setup(w.assigned.id);
          (setup ? res.busy_setup : res.busy_batch) += 1;
          complete_batch_node(w, w.assigned.id);
          finish_batch_if_done();
          continue;
        }
        if (!w.batch_deque.empty()) {
          const NodeId v = w.batch_deque.back();
          w.batch_deque.pop_back();
          const bool setup = batch.is_setup(v);
          (setup ? res.busy_setup : res.busy_batch) += 1;
          w.assigned = Ref{v, true};
          complete_batch_node(w, w.assigned.id);
          finish_batch_if_done();
          continue;
        }
        if (w.status == OpStatus::Done) {
          // Resume the suspended core node: it completes now.  Lemma 2: at
          // most two batches executed since the record was posted.
          const std::int64_t waited = batch_completions - w.completions_at_trap;
          if (waited > res.max_batches_waited) res.max_batches_waited = waited;
          w.status = OpStatus::Free;
          --pending_count;
          ++res.busy_core;
          complete_core_node(w, w.trapped_node);
          w.trapped_node = kNoNode;
          w.wait_steps = 0;
          continue;
        }
        ++w.wait_steps;
        if (!batch.active && (pending_count >= config.min_batch_ops ||
                              w.wait_steps >= config.max_wait_steps)) {
          launch_batch(w);  // consumes the step (the CAS + injection)
          continue;
        }
        // Steal from a random victim's batch deque.
        steal_from(w, /*batch_deque=*/true);
        if (w.assigned.valid()) {
          // Execute next step; this step was the steal.
        } else {
          ++res.idle;
        }
        continue;
      }

      // Free workers.
      if (w.assigned.valid()) {
        if (w.assigned.batch) {
          const bool setup = batch.is_setup(w.assigned.id);
          (setup ? res.busy_setup : res.busy_batch) += 1;
          complete_batch_node(w, w.assigned.id);
          finish_batch_if_done();
        } else if (core.is_ds[w.assigned.id]) {
          // Data-structure node: the worker becomes trapped.  Registering the
          // op record consumes the step.
          w.status = OpStatus::Pending;
          w.trapped_node = w.assigned.id;
          w.assigned = Ref{};
          ++pending_count;
          w.completions_at_trap = batch_completions;
        } else {
          ++res.busy_core;
          complete_core_node(w, w.assigned.id);
        }
        continue;
      }
      // Prefer own batch deque, then own core deque (pop is free; execute in
      // the same step).
      if (!w.batch_deque.empty()) {
        const NodeId v = w.batch_deque.back();
        w.batch_deque.pop_back();
        w.assigned = Ref{v, true};
        const bool setup = batch.is_setup(v);
        (setup ? res.busy_setup : res.busy_batch) += 1;
        complete_batch_node(w, v);
        finish_batch_if_done();
        continue;
      }
      if (!w.core_deque.empty()) {
        const NodeId v = w.core_deque.back();
        w.core_deque.pop_back();
        if (core.is_ds[v]) {
          w.status = OpStatus::Pending;
          w.trapped_node = v;
          ++pending_count;
          w.completions_at_trap = batch_completions;
        } else {
          w.assigned = Ref{v, false};
          ++res.busy_core;
          complete_core_node(w, v);
        }
        continue;
      }
      free_steal(w);
      if (!w.assigned.valid()) ++res.idle;
    }
  }
  return res;
}

}  // namespace batcher::sim
