// Tests for the update-compression substrate: stochastic quantization
// (unbiasedness), top-k sparsification + error feedback, the Compressor
// interface and its payload accounting, and engine integration in both
// execution modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "harness/experiment.h"

namespace fedl::compress {
namespace {

// The paper's constant payload s, the bits "none" uploads.
constexpr double kUploadBits = 1e7;

ParamVec random_vec(std::size_t n, Rng& rng, float scale = 1.0f) {
  ParamVec v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal()) * scale;
  return v;
}

// --- quantization ------------------------------------------------------------

TEST(Quantize, RoundTripWithinOneLevel) {
  Rng rng(1);
  const ParamVec x = random_vec(500, rng);
  const QuantizedVec q = quantize(x, 8, rng);
  const ParamVec rec = dequantize(q);
  float max_abs = 0.0f;
  for (float v : x) max_abs = std::max(max_abs, std::abs(v));
  const double unit = max_abs / 127.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(rec[i], x[i], unit + 1e-6);
}

TEST(Quantize, StochasticRoundingIsUnbiased) {
  // Repeated quantization of the same value must average back to it.
  Rng rng(2);
  const ParamVec x = {0.337f, -0.731f, 0.05f, 0.9f};
  ParamVec mean(x.size(), 0.0f);
  const int trials = 20000;
  for (int t = 0; t < trials; ++t) {
    const ParamVec rec = dequantize(quantize(x, 4, rng));
    for (std::size_t i = 0; i < x.size(); ++i) mean[i] += rec[i];
  }
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(mean[i] / trials, x[i], 0.01);
}

TEST(Quantize, FewerBitsMoreError) {
  Rng rng(3);
  const ParamVec x = random_vec(2000, rng);
  const double mse8 = quantization_mse(x, quantize(x, 8, rng));
  const double mse3 = quantization_mse(x, quantize(x, 3, rng));
  EXPECT_LT(mse8, mse3);
}

TEST(Quantize, PayloadShrinksWithBits) {
  const auto q8 = make_compressor("quant8", 1, 4, kUploadBits);
  const auto q4 = make_compressor("quant4", 1, 4, kUploadBits);
  EXPECT_EQ(q8->payload_bits(1000), 64.0 + 8.0 * 1000);
  EXPECT_LT(q4->payload_bits(1000), q8->payload_bits(1000));
  EXPECT_LT(q8->payload_bits(1000), 32.0 * 1000 + 64.0);
  EXPECT_EQ(q4->payload_bits(0), 64.0);  // an empty update: the header alone
}

TEST(Quantize, ZeroVectorStaysZero) {
  Rng rng(5);
  const ParamVec x(10, 0.0f);
  const ParamVec rec = dequantize(quantize(x, 8, rng));
  for (float v : rec) EXPECT_EQ(v, 0.0f);
}

TEST(Quantize, BadBitsRejected) {
  Rng rng(6);
  EXPECT_THROW(quantize({1.0f}, 1, rng), CheckError);
  EXPECT_THROW(quantize({1.0f}, 17, rng), CheckError);
}

// --- top-k --------------------------------------------------------------------

TEST(TopK, KeepsLargestMagnitudes) {
  const ParamVec x = {0.1f, -5.0f, 0.2f, 3.0f, -0.05f};
  const SparseVec s = top_k(x, 2);
  ASSERT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.indices[0], 1u);
  EXPECT_EQ(s.indices[1], 3u);
  EXPECT_EQ(s.values[0], -5.0f);
  EXPECT_EQ(s.values[1], 3.0f);
}

TEST(TopK, KLargerThanDimKeepsAll) {
  const ParamVec x = {1.0f, 2.0f};
  const SparseVec s = top_k(x, 10);
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_EQ(densify(s), x);
}

TEST(TopK, DensifyRoundTripsKeptCoordinates) {
  Rng rng(7);
  const ParamVec x = random_vec(300, rng);
  const SparseVec s = top_k(x, 30);
  const ParamVec d = densify(s);
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (d[i] != 0.0f) {
      EXPECT_EQ(d[i], x[i]);
      ++nonzero;
    }
  }
  EXPECT_EQ(nonzero, 30u);
}

TEST(TopK, PayloadProportionalToK) {
  const auto t1 = make_compressor("topk1", 1, 1, kUploadBits);
  const auto t10 = make_compressor("topk10", 1, 1, kUploadBits);
  EXPECT_EQ(t1->payload_bits(1000), 64.0 + 64.0 * 10);
  EXPECT_EQ(t10->payload_bits(1000), 64.0 + 64.0 * 100);
  EXPECT_EQ(t1->payload_bits(0), 64.0);  // an empty update: the header alone
  // The pure payload counts exactly the coordinates apply() keeps.
  Rng rng(11);
  const ParamVec kept = t10->apply(random_vec(1000, rng), 0);
  const auto nnz = std::count_if(kept.begin(), kept.end(),
                                 [](float v) { return v != 0.0f; });
  EXPECT_EQ(64.0 + 64.0 * static_cast<double>(nnz), t10->payload_bits(1000));
}

TEST(ErrorFeedback, ResidualCarriesDroppedMass) {
  ErrorFeedback ef;
  const ParamVec x = {1.0f, 0.5f, 0.25f};
  const SparseVec s = ef.compress(x, 1);
  ASSERT_EQ(s.nnz(), 1u);
  EXPECT_EQ(s.indices[0], 0u);
  // Residual holds what was dropped.
  EXPECT_EQ(ef.residual()[0], 0.0f);
  EXPECT_EQ(ef.residual()[1], 0.5f);
  EXPECT_EQ(ef.residual()[2], 0.25f);
  // Next round: residual is added before compressing, so the repeatedly
  // dropped coordinate eventually surfaces.
  const SparseVec s2 = ef.compress({0.0f, 0.5f, 0.0f}, 1);
  EXPECT_EQ(s2.indices[0], 1u);
  EXPECT_EQ(s2.values[0], 1.0f);  // 0.5 carried + 0.5 new
}

TEST(ErrorFeedback, NoLossOverTimeOnConstantSignal) {
  // Σ transmitted -> Σ input as rounds accumulate (error feedback property).
  ErrorFeedback ef;
  const ParamVec x = {0.3f, 0.2f, 0.1f, 0.05f};
  ParamVec transmitted(x.size(), 0.0f);
  const int rounds = 50;
  for (int r = 0; r < rounds; ++r) {
    const SparseVec s = ef.compress(x, 1);
    const ParamVec d = densify(s);
    for (std::size_t i = 0; i < x.size(); ++i) transmitted[i] += d[i];
  }
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(transmitted[i], x[i] * rounds, std::abs(x[i]) * 3 + 0.5);
}

// --- compressor interface ---------------------------------------------------------

TEST(Compressor, FactoryNamesAndErrors) {
  EXPECT_EQ(make_compressor("none", 4, 1, kUploadBits)->name(), "none");
  EXPECT_EQ(make_compressor("quant8", 4, 1, kUploadBits)->name(), "quant8");
  EXPECT_EQ(make_compressor("quant4", 4, 1, kUploadBits)->name(), "quant4");
  EXPECT_EQ(make_compressor("topk10", 4, 1, kUploadBits)->name(), "topk10");
  EXPECT_THROW(make_compressor("zstd", 4, 1, kUploadBits), ConfigError);
}

TEST(Compressor, NonePassesThrough) {
  NoneCompressor c(kUploadBits);
  const ParamVec d = {1.0f, -2.0f};
  EXPECT_EQ(c.apply(d, 0), d);
  // The paper's constant s, whatever the model size — even for a client
  // that uploaded nothing.
  EXPECT_EQ(c.payload_bits(2), kUploadBits);
  EXPECT_EQ(c.payload_bits(0), kUploadBits);
}

TEST(Compressor, QuantizeShrinksPayload) {
  Rng rng(8);
  const ParamVec d = random_vec(1000, rng);
  auto c = make_compressor("quant8", 1, 9, kUploadBits);
  EXPECT_LT(c->payload_bits(d.size()), 32.0 * 1000);
  EXPECT_EQ(c->apply(d, 0).size(), d.size());
}

TEST(Compressor, TopKKeepsPerClientState) {
  auto c = make_compressor("topk10", 2, 10, kUploadBits);
  const ParamVec d(100, 0.01f);
  const auto a0 = c->apply(d, 0);
  const auto b0 = c->apply(d, 1);
  // Client 0's second call sees client 0's residual, not client 1's.
  const auto a1 = c->apply(d, 0);
  EXPECT_EQ(a0.size(), 100u);
  EXPECT_EQ(b0.size(), 100u);
  EXPECT_EQ(a1.size(), 100u);
}

// --- engine integration --------------------------------------------------------------

TEST(Compressor, EngineRunsWithEveryCompressor) {
  for (const std::string comp : {"none", "quant8", "topk10"}) {
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
    cfg.dane.sgd_steps = 2;
    cfg.compressor = comp;
    harness::Experiment exp(cfg);
    auto strat = harness::make_strategy("fedavg", cfg);
    const auto res = exp.run(*strat);
    EXPECT_GT(res.epochs_run, 0u) << comp;
  }
}

TEST(Compressor, CompressionReducesSimulatedLatency) {
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "event mode" : "lockstep");
    auto run_time = [async](const std::string& comp) {
      harness::ScenarioConfig cfg;
      cfg.num_clients = 6;
      cfg.n_min = 2;
      cfg.budget = 100.0;
      cfg.max_epochs = 4;
      cfg.train_samples = 150;
      cfg.test_samples = 50;
      cfg.width_scale = 0.05;
      cfg.batch_cap = 10;
      cfg.eval_cap = 40;
      cfg.dane.sgd_steps = 2;
      cfg.compressor = comp;
      cfg.async.enabled = async;
      harness::Experiment exp(cfg);
      auto strat = harness::make_strategy("fedavg", cfg);
      return exp.run(*strat).trace.total_time();
    };
    // topk1 uploads ~1% of coordinates: far below the constant s payload.
    EXPECT_LT(run_time("topk1"), run_time("none"));
  }
}

}  // namespace
}  // namespace fedl::compress
