// Configuration-matrix tests for the FL engine: every combination of
// {local update rule} × {compressor} × {bandwidth policy} must run one
// epoch with all bookkeeping invariants intact (TEST_P sweep), plus
// targeted interplay cases (compression × faults, aggregation × rule).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/engine.h"
#include "net/bandwidth.h"
#include "nn/factory.h"

namespace fedl::fl {
namespace {

struct World {
  World(EngineConfig ec, net::BandwidthPolicy bw, std::uint64_t seed) {
    data = std::make_unique<data::TrainTest>(data::make_synthetic_train_test(
        data::fmnist_like_spec(240, seed), 60));
    Rng prng(seed);
    auto part = data::partition_iid(data->train, 5, prng);
    sim::EnvironmentSpec es;
    es.num_clients = 5;
    es.device.seed = seed + 1;
    es.device.availability_prob = 1.0;
    es.channel.seed = seed + 2;
    es.online.seed = seed + 3;
    es.bandwidth = bw;
    env = std::make_unique<sim::EdgeEnvironment>(es, part);

    Rng mrng(seed + 4);
    nn::ModelSpec ms;
    ms.width_scale = 0.04;
    ec.batch_cap = 10;
    ec.eval_cap = 40;
    ec.seed = seed + 5;
    engine = std::make_unique<FlEngine>(&data->train, &data->test, env.get(),
                                        nn::make_fmnist_cnn(ms, mrng), ec);
  }

  std::vector<std::size_t> everyone() {
    std::vector<std::size_t> out;
    for (const auto& o : env->context().available) out.push_back(o.id);
    return out;
  }

  std::unique_ptr<data::TrainTest> data;
  std::unique_ptr<sim::EdgeEnvironment> env;
  std::unique_ptr<FlEngine> engine;
};

struct MatrixCase {
  LocalUpdateRule rule;
  const char* compressor;
  net::BandwidthPolicy bw;
};

// Prints a case as rule_compressor_bandwidth, e.g. "Dane_quant8_minmax";
// ctest names each case after it. gtest's default printer shows the
// compressor string's address, which moves from build to build.
void PrintTo(const MatrixCase& c, std::ostream* os) {
  static const char* const kRuleNames[] = {"Dane", "FedProx", "Sgd"};
  *os << kRuleNames[static_cast<int>(c.rule)] << "_" << c.compressor << "_"
      << net::bandwidth_policy_name(c.bw);
}

std::vector<MatrixCase> matrix_cases() {
  std::vector<MatrixCase> cases;
  for (const LocalUpdateRule rule : {LocalUpdateRule::kDane,
                                     LocalUpdateRule::kFedProx,
                                     LocalUpdateRule::kSgd})
    for (const char* compressor : {"none", "quant8", "topk10"})
      for (const net::BandwidthPolicy bw :
           {net::BandwidthPolicy::kEqual,
            net::BandwidthPolicy::kMinMaxLatency})
        cases.push_back({rule, compressor, bw});
  return cases;
}

class EngineMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(EngineMatrix, OneEpochInvariants) {
  const auto [rule, compressor, bw] = GetParam();
  EngineConfig ec;
  ec.dane.rule = rule;
  ec.dane.sgd_steps = 2;
  ec.compressor = compressor;
  World w(ec, bw, 97);
  w.env->advance_epoch();
  const auto sel = w.everyone();
  ASSERT_GE(sel.size(), 2u);

  const EpochOutcome out = w.engine->run_epoch(sel, 2);
  EXPECT_EQ(out.selected, sel);
  EXPECT_EQ(out.num_iterations, 2u);
  EXPECT_GT(out.latency_s, 0.0);
  EXPECT_GT(out.cost, 0.0);
  ASSERT_EQ(out.client_eta.size(), sel.size());
  ASSERT_EQ(out.client_latency_s.size(), sel.size());
  for (std::size_t i = 0; i < sel.size(); ++i) {
    EXPECT_GE(out.client_eta[i], 0.0);
    EXPECT_LT(out.client_eta[i], 1.0);
    EXPECT_GT(out.client_latency_s[i], 0.0);
    EXPECT_LE(out.client_latency_s[i], out.latency_s + 1e-12);
  }
  EXPECT_GT(out.train_loss_all, 0.0);
  EXPECT_GE(out.test_accuracy, 0.0);
  EXPECT_LE(out.test_accuracy, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Matrix, EngineMatrix,
                         ::testing::ValuesIn(matrix_cases()));

TEST(EngineInterplay, CompressionShrinksUploadLatency) {
  EngineConfig plain;
  plain.dane.sgd_steps = 2;
  EngineConfig compressed = plain;
  compressed.compressor = "topk1";
  World a(plain, net::BandwidthPolicy::kEqual, 101);
  World b(compressed, net::BandwidthPolicy::kEqual, 101);
  a.env->advance_epoch();
  b.env->advance_epoch();
  const auto out_a = a.engine->run_epoch(a.everyone(), 1);
  const auto out_b = b.engine->run_epoch(b.everyone(), 1);
  // Same devices/channels (same seeds): the compressed run's epoch latency
  // must be strictly smaller because the upload term shrinks by ~100x.
  EXPECT_LT(out_b.latency_s, out_a.latency_s);
}

TEST(EngineInterplay, CompressionPlusFaultsRuns) {
  EngineConfig ec;
  ec.dane.sgd_steps = 2;
  ec.compressor = "quant8";
  ec.faults.dropout_prob = 0.5;
  World w(ec, net::BandwidthPolicy::kMinMaxLatency, 103);
  w.env->advance_epoch();
  const auto out = w.engine->run_epoch(w.everyone(), 3);
  EXPECT_GT(out.latency_s, 0.0);
  for (double eta : out.client_eta) EXPECT_LT(eta, 1.0);
}

TEST(EngineInterplay, MinMaxBandwidthReducesEpochLatency) {
  EngineConfig ec;
  ec.dane.sgd_steps = 2;
  World equal(ec, net::BandwidthPolicy::kEqual, 107);
  World minmax(ec, net::BandwidthPolicy::kMinMaxLatency, 107);
  equal.env->advance_epoch();
  minmax.env->advance_epoch();
  const auto out_eq = equal.engine->run_epoch(equal.everyone(), 1);
  const auto out_mm = minmax.engine->run_epoch(minmax.everyone(), 1);
  // Makespan-optimal FDMA can only help the slowest uploader; compute time
  // is identical, so epoch latency must not increase.
  EXPECT_LE(out_mm.latency_s, out_eq.latency_s + 1e-9);
}

TEST(EngineInterplay, LocalSgdStillDrivesLossDown) {
  EngineConfig ec;
  ec.dane.rule = LocalUpdateRule::kSgd;
  ec.dane.sgd_steps = 3;
  World w(ec, net::BandwidthPolicy::kEqual, 109);
  double first = 0.0, last = 0.0;
  for (int t = 0; t < 5; ++t) {
    w.env->advance_epoch();
    const auto out = w.engine->run_epoch(w.everyone(), 2);
    if (t == 0) first = out.train_loss_all;
    last = out.train_loss_all;
  }
  EXPECT_LT(last, first);
}

TEST(EngineInterplay, OptimizerVariantsProduceDifferentTrajectories) {
  auto loss_after = [](const char* opt) {
    EngineConfig ec;
    ec.dane.sgd_steps = 3;
    ec.dane.optimizer = opt;
    World w(ec, net::BandwidthPolicy::kEqual, 113);
    w.env->advance_epoch();
    return w.engine->run_epoch(w.everyone(), 2).train_loss_all;
  };
  const double sgd = loss_after("sgd");
  const double adam = loss_after("adam");
  EXPECT_NE(sgd, adam);  // different inner optimizers, different updates
}

}  // namespace
}  // namespace fedl::fl
