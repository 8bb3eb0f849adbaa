// Cross-module property tests: seed-parameterized sweeps over the whole
// pipeline checking the invariants that must hold for ANY seed — budget
// safety, decision feasibility, trace monotonicity, rounding marginals under
// repair, and GEMM fuzzing.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "core/fedl_strategy.h"
#include "harness/experiment.h"
#include "tensor/gemm.h"

namespace fedl {
namespace {

class QuietLogs2 : public ::testing::Environment {
 public:
  void SetUp() override { set_log_level(LogLevel::kWarn); }
};
const auto* const kQuiet2 =
    ::testing::AddGlobalTestEnvironment(new QuietLogs2);

harness::ScenarioConfig seeded_scenario(std::uint64_t seed) {
  harness::ScenarioConfig cfg;
  cfg.num_clients = 8;
  cfg.n_min = 3;
  cfg.budget = 150.0;
  cfg.max_epochs = 6;
  cfg.train_samples = 200;
  cfg.test_samples = 60;
  cfg.width_scale = 0.05;
  cfg.batch_cap = 10;
  cfg.eval_cap = 48;
  cfg.dane.sgd_steps = 2;
  cfg.seed = seed;
  return cfg;
}

class PipelineInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineInvariants, HoldForFedLAcrossSeeds) {
  const harness::ScenarioConfig cfg = seeded_scenario(GetParam());
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl", cfg);
  const auto res = exp.run(*strat);
  ASSERT_GT(res.epochs_run, 0u);

  double prev_time = -1.0, prev_cost = -1.0;
  for (const auto& r : res.trace.records) {
    EXPECT_GE(r.sim_time_s, prev_time);
    EXPECT_GE(r.cost_spent, prev_cost);
    prev_time = r.sim_time_s;
    prev_cost = r.cost_spent;
    EXPECT_LE(r.num_selected, cfg.num_clients);
    EXPECT_GE(r.test_accuracy, 0.0);
    EXPECT_LE(r.test_accuracy, 1.0);
  }
  // Constraint (3a) is hard: every epoch's committed selection is repaired
  // back under the remainder, so total spend never exceeds the budget.
  EXPECT_LE(res.trace.total_cost(), cfg.budget + 1e-6);
  // Regret vs the 1-lookahead greedy is non-negative for a 0-lookahead
  // policy.
  EXPECT_GE(res.regret.regret(), -1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineInvariants,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u));

class RepairInvariants : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RepairInvariants, FedLDecisionsAlwaysFeasible) {
  Rng rng(GetParam());
  core::FedLConfig fc;
  fc.learner.n_min = 3;
  fc.seed = GetParam();
  core::FedLStrategy strat(10, fc);
  core::BudgetLedger budget(rng.uniform(5.0, 200.0));

  for (int epoch = 0; epoch < 15; ++epoch) {
    sim::EpochContext ctx;
    ctx.epoch = static_cast<std::size_t>(epoch + 1);
    const std::size_t avail = 3 + static_cast<std::size_t>(rng.uniform_int(0, 7));
    std::vector<std::size_t> ids(10);
    for (std::size_t i = 0; i < 10; ++i) ids[i] = i;
    rng.shuffle(ids);
    ids.resize(avail);
    std::sort(ids.begin(), ids.end());
    for (std::size_t id : ids) {
      sim::ClientObservation o;
      o.id = id;
      o.cost = rng.uniform(0.1, 12.0);
      o.data_size = 5 + static_cast<std::size_t>(rng.uniform_int(0, 30));
      o.tau_loc = rng.uniform(0.05, 3.0);
      o.tau_cm_est = rng.uniform(0.01, 1.0);
      ctx.available.push_back(o);
    }

    const auto dec = strat.decide(ctx, budget);
    // All selected must be available and unique.
    std::set<std::size_t> uniq;
    double cost = 0.0;
    for (std::size_t id : dec.selected) {
      ASSERT_TRUE(ctx.is_available(id));
      EXPECT_TRUE(uniq.insert(id).second);
      cost += ctx.find(id)->cost;
    }
    EXPECT_LE(cost, budget.remaining() + 1e-9);
    EXPECT_GE(dec.num_iterations, 1u);

    fl::EpochOutcome out;
    out.selected = dec.selected;
    out.num_iterations = dec.num_iterations;
    out.client_eta.assign(dec.selected.size(), rng.uniform(0.1, 0.95));
    out.client_loss_reduction.assign(dec.selected.size(), rng.uniform(0.0, 0.3));
    out.client_completed_iters.assign(dec.selected.size(),
                                      dec.num_iterations);
    out.train_loss_all = rng.uniform(0.2, 2.5);
    out.cost = cost;
    strat.observe(ctx, dec, out);
    budget.charge(cost);
    if (budget.exhausted()) break;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairInvariants,
                         ::testing::Range<std::uint64_t>(100, 112));

class GemmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GemmFuzz, RandomShapesMatchNaive) {
  Rng rng(GetParam());
  const std::size_t m = 1 + static_cast<std::size_t>(rng.uniform_int(0, 90));
  const std::size_t n = 1 + static_cast<std::size_t>(rng.uniform_int(0, 90));
  const std::size_t k = 1 + static_cast<std::size_t>(rng.uniform_int(0, 90));
  const bool ta = rng.bernoulli(0.5);
  const bool tb = rng.bernoulli(0.5);
  const float alpha = static_cast<float>(rng.uniform(-2.0, 2.0));
  const float beta = static_cast<float>(rng.uniform(-1.0, 1.0));

  std::vector<float> a(m * k), b(k * n), c1(m * n), c2(m * n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < c1.size(); ++i)
    c1[i] = c2[i] = static_cast<float>(rng.normal());

  gemm(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c1.data());
  gemm_naive(ta, tb, m, n, k, alpha, a.data(), b.data(), beta, c2.data());
  for (std::size_t i = 0; i < c1.size(); ++i)
    ASSERT_NEAR(c1[i], c2[i], 1e-3f * (std::abs(c2[i]) + 1.0f))
        << "m=" << m << " n=" << n << " k=" << k << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, GemmFuzz,
                         ::testing::Range<std::uint64_t>(500, 512));

class DeterminismSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(DeterminismSweep, EveryStrategyIsSeedDeterministic) {
  const harness::ScenarioConfig cfg = seeded_scenario(99);
  harness::Experiment exp(cfg);
  auto run_final = [&] {
    auto strat = harness::make_strategy(GetParam(), cfg);
    const auto res = exp.run(*strat);
    return std::make_pair(res.trace.final_accuracy(),
                          res.trace.total_cost());
  };
  EXPECT_EQ(run_final(), run_final());
}

INSTANTIATE_TEST_SUITE_P(Roster, DeterminismSweep,
                         ::testing::Values("fedl", "fedavg", "fedcs", "powd",
                                           "ucb", "fedl-fair"));

}  // namespace
}  // namespace fedl
