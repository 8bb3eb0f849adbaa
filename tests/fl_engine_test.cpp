// Tests for the FL engine: the DANE local solver's descent and η estimate,
// aggregation rules, latency/cost accounting, and the epoch loop.
#include <gtest/gtest.h>

#include <cmath>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/dane.h"
#include "fl/engine.h"
#include "nn/factory.h"

namespace fedl::fl {
namespace {

nn::Batch two_blob_batch(std::size_t n, std::size_t dim, Rng& rng) {
  nn::Batch b;
  b.x = Tensor(Shape{n, dim});
  b.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = i % 2;
    b.y[i] = static_cast<std::uint8_t>(cls);
    for (std::size_t d = 0; d < dim; ++d)
      b.x.at(i, d) = static_cast<float>(rng.normal(cls ? 1.5 : -1.5, 0.7));
  }
  return b;
}

// --- DANE local solver ----------------------------------------------------------

TEST(Dane, SurrogateDecreasesAndEtaInRange) {
  Rng rng(1);
  nn::Model model = nn::make_logistic(4, 2, 1e-3, rng);
  nn::Batch batch = two_blob_batch(40, 4, rng);
  LocalOracle oracle(&model, &batch);
  const nn::ParamVec w = model.params_flat();

  DaneConfig cfg;
  cfg.sgd_steps = 20;
  cfg.sgd_step = 0.2;
  const LocalUpdate upd = dane_local_step(oracle, w, {}, cfg);
  EXPECT_LT(upd.surrogate_final, upd.surrogate_initial);
  EXPECT_GE(upd.eta, 0.0);
  EXPECT_LT(upd.eta, 1.0);
  EXPECT_EQ(upd.d.size(), w.size());
  EXPECT_LT(upd.loss_after, upd.loss_before);
}

TEST(Dane, MoreStepsGiveSmallerEta) {
  // η estimates the *remaining* suboptimality fraction: more SGD steps must
  // not increase it (on a convex problem).
  Rng rng(2);
  nn::Model model = nn::make_logistic(4, 2, 1e-2, rng);
  nn::Batch batch = two_blob_batch(40, 4, rng);
  LocalOracle oracle(&model, &batch);
  const nn::ParamVec w = model.params_flat();

  DaneConfig few;
  few.sgd_steps = 2;
  few.sgd_step = 0.1;
  DaneConfig many = few;
  many.sgd_steps = 40;
  const double eta_few = dane_local_step(oracle, w, {}, few).eta;
  const double eta_many = dane_local_step(oracle, w, {}, many).eta;
  EXPECT_LT(eta_many, eta_few + 0.05);
}

TEST(Dane, GlobalGradientAnchorsDirection) {
  // With σ1 large and ḡ pointing somewhere specific, d should correlate with
  // −ḡ (the surrogate's gradient at d=0 is σ2·ḡ).
  Rng rng(3);
  nn::Model model = nn::make_logistic(3, 2, 0.0, rng);
  nn::Batch batch = two_blob_batch(20, 3, rng);
  LocalOracle oracle(&model, &batch);
  const nn::ParamVec w = model.params_flat();

  nn::ParamVec gbar(w.size());
  for (std::size_t i = 0; i < gbar.size(); ++i)
    gbar[i] = (i % 2 == 0) ? 1.0f : -1.0f;

  DaneConfig cfg;
  cfg.sigma1 = 10.0;  // keep d small so the local term doesn't dominate
  cfg.sigma2 = 1.0;
  cfg.sgd_steps = 10;
  cfg.sgd_step = 0.02;
  const LocalUpdate upd = dane_local_step(oracle, w, gbar, cfg);
  double dot_val = 0.0;
  for (std::size_t i = 0; i < upd.d.size(); ++i)
    dot_val += static_cast<double>(upd.d[i]) * gbar[i];
  EXPECT_LT(dot_val, 0.0);  // moved against the broadcast gradient
}

TEST(Dane, OracleValidatesDimensions) {
  Rng rng(4);
  nn::Model model = nn::make_logistic(3, 2, 0.0, rng);
  nn::Batch batch = two_blob_batch(10, 3, rng);
  LocalOracle oracle(&model, &batch);
  nn::ParamVec bad(model.num_params() + 1);
  EXPECT_THROW(oracle.loss_grad(bad, nullptr), CheckError);
}

// --- engine ----------------------------------------------------------------------

struct EngineFixture {
  EngineFixture(std::size_t clients, std::uint64_t seed,
                AggregationRule rule = AggregationRule::kSelectedMean) {
    data = std::make_unique<data::TrainTest>(data::make_synthetic_train_test(
        data::fmnist_like_spec(400, seed), 120));
    Rng prng(seed);
    auto part = data::partition_iid(data->train, clients, prng);
    sim::EnvironmentSpec es;
    es.num_clients = clients;
    es.device.seed = seed + 1;
    es.device.availability_prob = 1.0;  // deterministic availability
    es.channel.seed = seed + 2;
    es.online.seed = seed + 3;
    env = std::make_unique<sim::EdgeEnvironment>(es, part);

    Rng mrng(seed + 4);
    nn::ModelSpec ms;
    ms.width_scale = 0.05;
    nn::Model model = nn::make_fmnist_cnn(ms, mrng);
    EngineConfig ec;
    ec.aggregation = rule;
    ec.batch_cap = 16;
    ec.eval_cap = 80;
    ec.dane.sgd_steps = 3;
    ec.seed = seed + 5;
    engine = std::make_unique<FlEngine>(&data->train, &data->test, env.get(),
                                        std::move(model), ec);
  }

  std::unique_ptr<data::TrainTest> data;
  std::unique_ptr<sim::EdgeEnvironment> env;
  std::unique_ptr<FlEngine> engine;
};

TEST(Engine, EpochOutcomeBookkeeping) {
  EngineFixture f(6, 11);
  const auto& ctx = f.env->advance_epoch();
  ASSERT_GE(ctx.available.size(), 3u);
  std::vector<std::size_t> sel = {ctx.available[0].id, ctx.available[1].id,
                                  ctx.available[2].id};
  const EpochOutcome out = f.engine->run_epoch(sel, 2);

  EXPECT_EQ(out.selected, sel);
  EXPECT_EQ(out.num_iterations, 2u);
  EXPECT_EQ(out.client_eta.size(), 3u);
  EXPECT_EQ(out.client_latency_s.size(), 3u);

  // Cost = sum of the selected clients' posted costs.
  double cost = 0.0;
  for (std::size_t id : sel) cost += ctx.find(id)->cost;
  EXPECT_NEAR(out.cost, cost, 1e-9);

  // Epoch latency = max over clients; each = l·(τ^loc + τ^cm realized) at
  // the paper's constant payload s.
  const double s = f.env->spec().device.upload_bits;
  const std::vector<double> step = f.env->step_times(sel, {s, s, s});
  double max_lat = 0.0;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    const double expect = 2.0 * step[i];
    EXPECT_NEAR(out.client_latency_s[i], expect, 1e-9);
    max_lat = std::max(max_lat, expect);
  }
  EXPECT_NEAR(out.latency_s, max_lat, 1e-9);

  for (double eta : out.client_eta) {
    EXPECT_GE(eta, 0.0);
    EXPECT_LT(eta, 1.0);
  }
  EXPECT_GT(out.test_accuracy, 0.0);
}

TEST(Engine, EmptySelectionIsEvaluatedNoop) {
  EngineFixture f(4, 13);
  f.env->advance_epoch();
  const nn::ParamVec before = f.engine->global_params();
  const EpochOutcome out = f.engine->run_epoch({}, 5);
  EXPECT_EQ(out.num_iterations, 0u);
  EXPECT_EQ(out.latency_s, 0.0);
  EXPECT_EQ(out.cost, 0.0);
  EXPECT_EQ(f.engine->global_params(), before);
  EXPECT_GT(out.test_loss, 0.0);  // evaluation still happened
}

TEST(Engine, SelectingUnavailableClientThrows) {
  EngineFixture f(4, 17);
  f.env->advance_epoch();
  EXPECT_THROW(f.engine->run_epoch({99}, 1), CheckError);
}

TEST(Engine, TrainingReducesGlobalLoss) {
  EngineFixture f(5, 19);
  double first_loss = 0.0, last_loss = 0.0;
  for (int t = 0; t < 6; ++t) {
    const auto& ctx = f.env->advance_epoch();
    std::vector<std::size_t> sel;
    for (const auto& o : ctx.available) sel.push_back(o.id);
    const auto out = f.engine->run_epoch(sel, 2);
    if (t == 0) first_loss = out.train_loss_all;
    last_loss = out.train_loss_all;
  }
  EXPECT_LT(last_loss, first_loss);
}

TEST(Engine, PaperAggregationShrinksUpdateVsSelectedMean) {
  // With 2 of 6 clients selected, the paper rule divides by |E_t| = 6 while
  // selected-mean divides by 2: the paper-rule step must be smaller.
  EngineFixture paper(6, 23, AggregationRule::kPaperMean);
  EngineFixture mean(6, 23, AggregationRule::kSelectedMean);

  const auto& ctx_p = paper.env->advance_epoch();
  const auto& ctx_m = mean.env->advance_epoch();
  ASSERT_GE(ctx_p.available.size(), 2u);
  std::vector<std::size_t> sel = {ctx_p.available[0].id,
                                  ctx_p.available[1].id};
  ASSERT_TRUE(ctx_m.is_available(sel[0]) && ctx_m.is_available(sel[1]));

  const nn::ParamVec w0 = paper.engine->global_params();
  paper.engine->run_epoch(sel, 1);
  mean.engine->run_epoch(sel, 1);

  const double move_paper =
      vnorm(vsub(paper.engine->global_params(), w0));
  const double move_mean = vnorm(vsub(mean.engine->global_params(), w0));
  EXPECT_LT(move_paper, move_mean);
  EXPECT_GT(move_paper, 0.0);
}

TEST(Engine, SetGlobalParamsRoundTrip) {
  EngineFixture f(3, 29);
  nn::ParamVec w = f.engine->global_params();
  for (auto& v : w) v += 0.5f;
  f.engine->set_global_params(w);
  EXPECT_EQ(f.engine->global_params(), w);
  EXPECT_THROW(f.engine->set_global_params(nn::ParamVec(w.size() - 1)),
               CheckError);
}

TEST(Engine, DeterministicGivenSeeds) {
  auto run = [] {
    EngineFixture f(4, 31);
    const auto& ctx = f.env->advance_epoch();
    std::vector<std::size_t> sel;
    for (const auto& o : ctx.available) sel.push_back(o.id);
    return f.engine->run_epoch(sel, 2).train_loss_all;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace fedl::fl
