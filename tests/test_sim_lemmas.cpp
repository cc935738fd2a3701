// Empirical verification of the paper's §5 analysis structure on the
// simulator: Lemma 2 (trap latency), the batch taxonomy, and the lemma-wise
// steal-attempt bounds (Lemmas 9, 10+11, 13).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>

#include "sim/cost_model.hpp"
#include "sim/dag.hpp"
#include "sim/sim_batcher.hpp"

namespace batcher::sim {
namespace {

struct Scenario {
  const char* name;
  std::int64_t iters;
  std::int64_t pre, post, ds_per_iter;
  std::int64_t structure_size;
  unsigned workers;
};

// Test names show the scenario's name, not its bytes (which hold a pointer).
void PrintTo(const Scenario& sc, std::ostream* os) { *os << sc.name; }

class LemmaTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(LemmaTest, Lemma2AtMostTwoBatchesPerTrap) {
  const Scenario& sc = GetParam();
  Dag core = build_parallel_loop_with_ds(sc.iters, sc.pre, sc.post,
                                         sc.ds_per_iter);
  SkipListCostModel model(sc.structure_size);
  BatcherSimConfig cfg;
  cfg.workers = sc.workers;
  cfg.seed = 21;
  const SimResult res = simulate_batcher(core, model, cfg);
  // "Once the operation record ... is put into the pending array, at most
  // two batches execute before the node completes."
  EXPECT_LE(res.max_batches_waited, 2) << sc.name;
  EXPECT_GE(res.max_batches_waited, 1) << sc.name;
}

TEST_P(LemmaTest, StealCategoriesPartitionAllAttempts) {
  const Scenario& sc = GetParam();
  Dag core = build_parallel_loop_with_ds(sc.iters, sc.pre, sc.post,
                                         sc.ds_per_iter);
  SkipListCostModel model(sc.structure_size);
  BatcherSimConfig cfg;
  cfg.workers = sc.workers;
  cfg.seed = 22;
  const SimResult res = simulate_batcher(core, model, cfg);
  EXPECT_EQ(res.big_batch_steals + res.free_steals + res.trapped_steals,
            res.steal_attempts)
      << sc.name;
}

TEST_P(LemmaTest, BigBatchStealsWithinLemma9Envelope) {
  const Scenario& sc = GetParam();
  Dag core = build_parallel_loop_with_ds(sc.iters, sc.pre, sc.post,
                                         sc.ds_per_iter);
  SkipListCostModel model(sc.structure_size);
  BatcherSimConfig cfg;
  cfg.workers = sc.workers;
  cfg.seed = 23;
  const SimResult res = simulate_batcher(core, model, cfg);
  // Lemma 9: E[big-batch steals] = O(nτ + P·S_τ(n) + W(n)).
  const std::int64_t n = core.num_ds_nodes();
  const std::int64_t P = sc.workers;
  const std::int64_t w_n =
      n * SkipListCostModel(sc.structure_size + n).batch_cost(1).work;
  const std::int64_t envelope =
      n * res.tau + P * res.trimmed_span + w_n;
  EXPECT_LE(res.big_batch_steals, 16 * envelope + 64 * P) << sc.name;
}

TEST_P(LemmaTest, FreeStealsWithinLemma10And11Envelope) {
  const Scenario& sc = GetParam();
  Dag core = build_parallel_loop_with_ds(sc.iters, sc.pre, sc.post,
                                         sc.ds_per_iter);
  SkipListCostModel model(sc.structure_size);
  BatcherSimConfig cfg;
  cfg.workers = sc.workers;
  cfg.seed = 24;
  const SimResult res = simulate_batcher(core, model, cfg);
  // Lemmas 10+11: E[free steals] = O(P·(T∞ + m·τ) + n·τ).
  const std::int64_t n = core.num_ds_nodes();
  const std::int64_t P = sc.workers;
  const std::int64_t envelope =
      P * (core.span() + core.max_ds_on_path() * res.tau) + n * res.tau;
  EXPECT_LE(res.free_steals, 16 * envelope + 64 * P) << sc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, LemmaTest,
    ::testing::Values(
        Scenario{"ds-heavy-small", 512, 1, 1, 1, 1 << 10, 8},
        Scenario{"ds-heavy-large", 512, 1, 1, 1, 1 << 22, 8},
        Scenario{"core-heavy", 256, 32, 32, 1, 1 << 10, 8},
        Scenario{"deep-m", 64, 2, 1, 8, 1 << 16, 8},
        Scenario{"wide-P16", 1024, 2, 1, 1, 1 << 16, 16},
        Scenario{"tiny-P2", 128, 1, 1, 1, 1 << 8, 2}),
    [](const ::testing::TestParamInfo<Scenario>& info) {
      std::string name = info.param.name;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(Lemma2, HoldsUnderEveryStealPolicy) {
  Dag core = build_parallel_loop_with_ds(512, 1, 1, 1);
  for (StealPolicy policy :
       {StealPolicy::Alternating, StealPolicy::CoreOnly, StealPolicy::BatchOnly,
        StealPolicy::UniformRandom}) {
    CounterCostModel model;
    BatcherSimConfig cfg;
    cfg.workers = 8;
    cfg.policy = policy;
    const SimResult res = simulate_batcher(core, model, cfg);
    EXPECT_LE(res.max_batches_waited, 2)
        << "policy " << static_cast<int>(policy)
        << " (Lemma 2 is a property of the launch rule, not the steal "
           "policy)";
  }
}

TEST(Lemma2, AccruePolicyBreaksTheBound) {
  // The launch-immediately rule is what gives Lemma 2 its "at most two":
  // with an accrual threshold a pending op can sit out arbitrarily many
  // batches... except that a trapped worker launches itself after max_wait,
  // and every launch takes ALL pending records — so even with accrual the
  // bound measured here stays 2.  This documents that the bound comes from
  // "a launch collects every pending record", not from launching eagerly.
  Dag core = build_parallel_loop_with_ds(512, 1, 1, 1);
  CounterCostModel model;
  BatcherSimConfig cfg;
  cfg.workers = 8;
  cfg.min_batch_ops = 4;
  cfg.max_wait_steps = 32;
  const SimResult res = simulate_batcher(core, model, cfg);
  EXPECT_LE(res.max_batches_waited, 2);
}

TEST(Lemma2, HelperLockModeLosesTheBound) {
  // With a 1-op collection cap (the §6 helper-lock comparison) a pending
  // operation can sit out many critical sections — the "collect ALL pending
  // records" rule is exactly what Lemma 2's proof uses, so removing it must
  // break the bound.  This is a negative control for the instrumentation.
  Dag core = build_parallel_loop_with_ds(1024, 1, 1, 1);
  SkipListCostModel model(1 << 20);
  BatcherSimConfig cfg;
  cfg.workers = 8;
  cfg.max_ops_per_batch = 1;
  const SimResult res = simulate_batcher(core, model, cfg);
  EXPECT_EQ(res.max_batch_size, 1);
  EXPECT_GT(res.max_batches_waited, 2)
      << "helper-lock mode unexpectedly satisfied the BATCHER trap bound";
}

TEST(Taxonomy, PopularBatchesAppearUnderLoad) {
  Dag core = build_parallel_loop_with_ds(2048, 1, 1, 1);
  SkipListCostModel model(1 << 20);
  BatcherSimConfig cfg;
  cfg.workers = 8;
  const SimResult res = simulate_batcher(core, model, cfg);
  // Mean batch ≈ P/2 > P/4: most batches are popular, hence big.
  EXPECT_GT(res.popular_batches, res.batches / 2);
  EXPECT_GE(res.big_batches, res.popular_batches);
}

TEST(Taxonomy, SequentialCallerMakesNoPopularBatches) {
  Dag core = build_sequential_ds_chain(64, 2);
  SkipListCostModel model(1 << 20);
  BatcherSimConfig cfg;
  cfg.workers = 8;
  const SimResult res = simulate_batcher(core, model, cfg);
  EXPECT_EQ(res.popular_batches, 0);  // singleton batches, P/4 = 2
  EXPECT_EQ(res.max_batch_size, 1);
}

TEST(Taxonomy, TrimmedSpanSumsLongBatchSpans) {
  // With τ forced below every batch span, all batches are long and the
  // trimmed span is the sum of all batch spans.
  Dag core = build_parallel_loop_with_ds(128, 1, 1, 1);
  SkipListCostModel model(1 << 20);
  BatcherSimConfig cfg;
  cfg.workers = 4;
  cfg.tau = 1;
  const SimResult res = simulate_batcher(core, model, cfg);
  EXPECT_EQ(res.long_batches, res.batches);
  EXPECT_GE(res.trimmed_span, res.batches * 2);
  // And with τ huge, nothing is long.
  SkipListCostModel model2(1 << 20);
  cfg.tau = 1 << 30;
  const SimResult res2 = simulate_batcher(core, model2, cfg);
  EXPECT_EQ(res2.long_batches, 0);
  EXPECT_EQ(res2.trimmed_span, 0);
}

}  // namespace
}  // namespace batcher::sim
