// Tests for the extension modules: the fairness tracker + FedL fairness
// mode, and the FedProx/SGD local-solver variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <vector>

#include "core/fairness.h"
#include "core/fedl_strategy.h"
#include "fl/dane.h"
#include "harness/experiment.h"
#include "nn/factory.h"

namespace fedl {
namespace {

// --- fairness ----------------------------------------------------------------------

TEST(ParticipationTracker, RatesAreSelectionsOverAvailabilities) {
  core::ClientStatePool pool(0.5, 0.5, 0.1);
  // Clients 0, 1, 2 offered with 0 selected, then 0 and 1 with both
  // selected (`picked` holds positions among the offered slots).
  const std::vector<std::uint32_t> slots{pool.resolve(0), pool.resolve(1),
                                         pool.resolve(2)};
  pool.record_participation(slots, {0});
  pool.record_participation({slots[0], slots[1]}, {0, 1});
  EXPECT_EQ(pool.participation_epochs(), 2u);
  EXPECT_DOUBLE_EQ(core::participation_rate(pool, slots[0]), 1.0);
  EXPECT_DOUBLE_EQ(core::participation_rate(pool, slots[1]), 0.5);
  EXPECT_DOUBLE_EQ(core::participation_rate(pool, slots[2]), 0.0);
  EXPECT_DOUBLE_EQ(
      core::participation_rate(pool, core::ClientStatePool::npos), 0.0);
  EXPECT_EQ(pool.estimates(slots[0]).selected, 2u);
  EXPECT_EQ(pool.offered(slots[2]), 1u);
  // Only the two selected clients hold a selected record.
  EXPECT_EQ(pool.selected_records(), 2u);
}

TEST(JainsIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(core::jains_index({5, 5, 5, 5}), 1.0);
  EXPECT_DOUBLE_EQ(core::jains_index({4, 0, 0, 0}), 0.25);
  EXPECT_DOUBLE_EQ(core::jains_index({0, 0}), 1.0);
}

TEST(Fairness, BoostRaisesJainsIndex) {
  // Make half the fleet slow so vanilla FedL concentrates on the fast half;
  // the fairness quota must spread selections measurably wider.
  auto run = [](bool fair) {
    core::FedLConfig fc;
    fc.learner.n_min = 2;
    fc.learner.theta = 0.5;
    fc.fairness.enabled = fair;
    fc.fairness.min_rate = 0.3;
    fc.fairness.warmup_epochs = 3;
    core::FedLStrategy s(8, fc);
    core::BudgetLedger budget(100000.0);
    sim::EpochContext ctx;
    ctx.epoch = 1;
    for (std::size_t i = 0; i < 8; ++i) {
      sim::ClientObservation o;
      o.id = i;
      o.cost = 1.0;
      o.data_size = 10;
      o.tau_loc = (i < 4) ? 0.1 : 4.0;
      o.tau_cm_est = 0.05;
      ctx.available.push_back(o);
    }
    for (int t = 0; t < 40; ++t) {
      const auto d = s.decide(ctx, budget);
      fl::EpochOutcome out;
      out.selected = d.selected;
      out.num_iterations = d.num_iterations;
      out.client_eta.assign(d.selected.size(), 0.5);
      out.client_loss_reduction.assign(d.selected.size(), 0.05);
      out.client_completed_iters.assign(d.selected.size(), d.num_iterations);
      out.train_loss_all = 0.4;
      s.observe(ctx, d, out);
    }
    return core::jains_index(core::selection_counts(s.participation(), 8));
  };
  const double fair_index = run(true);
  const double plain_index = run(false);
  EXPECT_GT(fair_index, plain_index);
  EXPECT_GT(fair_index, 0.7);
}

TEST(Fairness, FedlFairStrategyRunsEndToEnd) {
  harness::ScenarioConfig cfg;
  cfg.num_clients = 8;
  cfg.n_min = 3;
  cfg.budget = 120.0;
  cfg.max_epochs = 5;
  cfg.train_samples = 200;
  cfg.test_samples = 60;
  cfg.width_scale = 0.05;
  cfg.batch_cap = 12;
  cfg.eval_cap = 48;
  cfg.dane.sgd_steps = 2;
  harness::Experiment exp(cfg);
  auto strat = harness::make_strategy("fedl-fair", cfg);
  const auto res = exp.run(*strat);
  EXPECT_GT(res.epochs_run, 0u);
}

// --- local solver variants ------------------------------------------------------------

struct SolverCase {
  fl::LocalUpdateRule rule;
  const char* optimizer;
};

// Prints a case as rule and optimizer, e.g. "Dane_sgd"; ctest names each case
// after it. gtest's default printer dumps the struct's bytes, whose padding and
// string pointer differ on every run.
void PrintTo(const SolverCase& c, std::ostream* os) {
  static const char* const kRuleNames[] = {"Dane", "FedProx", "Sgd"};
  *os << kRuleNames[static_cast<int>(c.rule)] << "_" << c.optimizer;
}

class LocalSolverVariants : public ::testing::TestWithParam<SolverCase> {};

TEST_P(LocalSolverVariants, DecreasesLocalLoss) {
  Rng rng(21);
  nn::Model model = nn::make_logistic(4, 2, 1e-2, rng);
  nn::Batch batch;
  batch.x = Tensor(Shape{30, 4});
  batch.y.resize(30);
  for (std::size_t i = 0; i < 30; ++i) {
    const int cls = i % 2;
    batch.y[i] = static_cast<std::uint8_t>(cls);
    for (std::size_t d = 0; d < 4; ++d)
      batch.x.at(i, d) = static_cast<float>(rng.normal(cls ? 1.5 : -1.5, 0.6));
  }
  fl::LocalOracle oracle(&model, &batch);
  const nn::ParamVec w = model.params_flat();

  fl::DaneConfig cfg;
  cfg.rule = GetParam().rule;
  cfg.optimizer = GetParam().optimizer;
  cfg.sgd_steps = 15;
  cfg.sgd_step = 0.1;
  const fl::LocalUpdate upd = fl::dane_local_step(oracle, w, {}, cfg);
  EXPECT_LT(upd.loss_after, upd.loss_before);
  EXPECT_GE(upd.eta, 0.0);
  EXPECT_LT(upd.eta, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Rules, LocalSolverVariants,
    ::testing::Values(SolverCase{fl::LocalUpdateRule::kDane, "sgd"},
                      SolverCase{fl::LocalUpdateRule::kFedProx, "sgd"},
                      SolverCase{fl::LocalUpdateRule::kSgd, "sgd"},
                      SolverCase{fl::LocalUpdateRule::kDane, "momentum"},
                      SolverCase{fl::LocalUpdateRule::kDane, "adam"},
                      SolverCase{fl::LocalUpdateRule::kFedProx, "momentum"}));

TEST(LocalSolver, FedProxKeepsUpdateSmallerThanSgd) {
  // The proximal term shrinks ‖d‖ relative to unregularized local descent.
  Rng rng(23);
  nn::Model model = nn::make_logistic(4, 2, 1e-3, rng);
  nn::Batch batch;
  batch.x = Tensor::uniform(Shape{20, 4}, -1.0f, 1.0f, rng);
  batch.y.resize(20);
  for (auto& y : batch.y)
    y = static_cast<std::uint8_t>(rng.uniform_int(0, 1));
  fl::LocalOracle oracle(&model, &batch);
  const nn::ParamVec w = model.params_flat();

  fl::DaneConfig prox;
  prox.rule = fl::LocalUpdateRule::kFedProx;
  prox.sigma1 = 5.0;
  prox.sgd_steps = 20;
  prox.sgd_step = 0.1;
  fl::DaneConfig sgd = prox;
  sgd.rule = fl::LocalUpdateRule::kSgd;

  const auto norm = [](const nn::ParamVec& d) {
    double s = 0.0;
    for (float x : d) s += static_cast<double>(x) * static_cast<double>(x);
    return std::sqrt(s);
  };
  const double d_prox = norm(fl::dane_local_step(oracle, w, {}, prox).d);
  const double d_sgd = norm(fl::dane_local_step(oracle, w, {}, sgd).d);
  EXPECT_LT(d_prox, d_sgd);
}

TEST(LocalSolver, EngineRunsWithEveryRule) {
  for (auto rule : {fl::LocalUpdateRule::kDane, fl::LocalUpdateRule::kFedProx,
                    fl::LocalUpdateRule::kSgd}) {
    harness::ScenarioConfig cfg;
    cfg.num_clients = 6;
    cfg.n_min = 2;
    cfg.budget = 80.0;
    cfg.max_epochs = 3;
    cfg.train_samples = 150;
    cfg.test_samples = 50;
    cfg.width_scale = 0.05;
    cfg.batch_cap = 10;
    cfg.eval_cap = 40;
    cfg.dane.rule = rule;
    cfg.dane.sgd_steps = 2;
    harness::Experiment exp(cfg);
    auto strat = harness::make_strategy("fedavg", cfg);
    const auto res = exp.run(*strat);
    EXPECT_GT(res.epochs_run, 0u);
  }
}

}  // namespace
}  // namespace fedl
