#include "sim/sim_flatcomb.hpp"

#include <vector>

#include "batcher/announce.hpp"
#include "support/config.hpp"
#include "support/rng.hpp"

namespace batcher::sim {

SimResult simulate_flatcomb(const Dag& core, BatchCostModel& model,
                            unsigned workers, std::uint64_t seed) {
  const unsigned P = workers;
  BATCHER_ASSERT(P >= 1, "need at least one worker");
  BATCHER_ASSERT(core.validate(), "invalid core dag");

  const std::size_t n = core.size();
  std::vector<std::uint8_t> indeg(core.join_degree.begin(),
                                  core.join_degree.end());

  struct Worker {
    std::vector<NodeId> deque;
    NodeId assigned = kNoNode;
    OpStatus status = OpStatus::Free;
    NodeId trapped_node = kNoNode;
  };
  std::vector<Worker> ws(P);
  ws[0].assigned = core.root;

  // Combiner state: when active, `combiner` grinds through `remaining`
  // sequential steps, after which all `members` complete.
  bool combining = false;
  unsigned combiner = 0;
  std::int64_t remaining = 0;
  std::vector<unsigned> members;

  Xoshiro256 rng(seed);
  SimResult res;
  std::size_t executed = 0;

  auto complete_core = [&](Worker& w, NodeId v) {
    ++executed;
    ++res.busy_core;
    NodeId enabled[2];
    int ne = 0;
    for (NodeId c : {core.child0[v], core.child1[v]}) {
      if (c != kNoNode && --indeg[c] == 0) enabled[ne++] = c;
    }
    if (ne >= 1) {
      w.assigned = enabled[0];
      if (ne == 2) w.deque.push_back(enabled[1]);
    } else if (!w.deque.empty()) {
      w.assigned = w.deque.back();
      w.deque.pop_back();
    } else {
      w.assigned = kNoNode;
    }
  };

  while (executed < n) {
    ++res.makespan;
    BATCHER_ASSERT(res.makespan < (std::int64_t{1} << 40),
                   "simulation does not terminate");
    for (unsigned p = 0; p < P; ++p) {
      Worker& w = ws[p];

      if (w.status != OpStatus::Free) {
        ++res.trapped_steps;
        if (combining && combiner == p) {
          // Serve one sequential step of the combined batch.
          ++res.busy_batch;
          if (--remaining == 0) {
            for (unsigned m : members) ws[m].status = OpStatus::Done;
            model.on_commit(static_cast<std::int64_t>(members.size()));
            combining = false;
            members.clear();
          }
          continue;
        }
        if (w.status == OpStatus::Done) {
          w.status = OpStatus::Free;
          complete_core(w, w.trapped_node);
          w.trapped_node = kNoNode;
          continue;
        }
        if (!combining) {
          // Become the combiner: sweep the publication list.
          combining = true;
          combiner = p;
          members.clear();
          std::int64_t k = 0;
          for (unsigned q = 0; q < P; ++q) {
            if (ws[q].status == OpStatus::Pending) {
              ws[q].status = OpStatus::Executing;
              members.push_back(q);
              ++k;
            }
          }
          remaining = k * model.sequential_op_cost();
          ++res.batches;
          res.batch_ops += k;
          if (k > res.max_batch_size) res.max_batch_size = k;
          continue;  // the sweep consumes this step
        }
        ++res.idle;  // spin-wait on the combiner
        continue;
      }

      if (w.assigned != kNoNode) {
        if (core.is_ds[w.assigned]) {
          w.status = OpStatus::Pending;
          w.trapped_node = w.assigned;
          w.assigned = kNoNode;
        } else {
          complete_core(w, w.assigned);
        }
        continue;
      }
      // Steal attempt (single deque kind here).
      ++res.steal_attempts;
      if (P == 1) {
        ++res.idle;
        continue;
      }
      unsigned victim = static_cast<unsigned>(rng.next_below(P - 1));
      if (victim >= p) ++victim;
      auto& vd = ws[victim].deque;
      if (!vd.empty()) {
        w.assigned = vd.front();
        vd.erase(vd.begin());
        ++res.steals_succeeded;
      }
    }
  }
  return res;
}

}  // namespace batcher::sim
