// Unit tests for the NN library. The load-bearing tests are the
// finite-difference gradient checks: every layer's backward pass (and the
// whole model's flat gradient) is verified against numerical derivatives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/pool.h"
#include "parallel/scheduler.h"

namespace fedl::nn {
namespace {

// The flat gradient vector of `m`, as a fresh copy.
ParamVec grads_of(const Model& m) {
  ParamVec g;
  m.grads_flat_into(g);
  return g;
}

// Central-difference gradient of `model` loss w.r.t. its flat parameters,
// compared against the flat gradient from backprop.
void check_model_gradient(Model& model, const Batch& batch,
                          double rel_tol = 2e-2, double abs_tol = 2e-3,
                          std::size_t probes = 24) {
  model.forward_backward(batch);
  const ParamVec analytic = grads_of(model);
  ParamVec w = model.params_flat();
  Rng rng(12345);

  const float eps = 5e-3f;
  for (std::size_t probe = 0; probe < probes; ++probe) {
    const std::size_t i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(w.size()) - 1));
    ParamVec wp = w, wm = w;
    wp[i] += eps;
    wm[i] -= eps;
    model.set_params_flat(wp);
    const double lp = model.evaluate(batch).loss;
    model.set_params_flat(wm);
    const double lm = model.evaluate(batch).loss;
    const double numeric = (lp - lm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                abs_tol + rel_tol * std::abs(numeric))
        << "param index " << i;
  }
  model.set_params_flat(w);
}

Batch make_random_batch(Shape x_shape, std::size_t classes, Rng& rng) {
  Batch b;
  b.x = Tensor::uniform(x_shape, -1.0f, 1.0f, rng);
  b.y.resize(x_shape[0]);
  for (auto& y : b.y)
    y = static_cast<std::uint8_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(classes) - 1));
  return b;
}

// --- loss ---------------------------------------------------------------------

TEST(Loss, UniformLogitsGiveLogC) {
  Tensor logits(Shape{4, 10});  // all zeros -> uniform softmax
  std::vector<std::uint8_t> y = {0, 3, 7, 9};
  const auto r = softmax_cross_entropy(logits, y);
  EXPECT_NEAR(r.loss, std::log(10.0), 1e-5);
}

TEST(Loss, PerfectPredictionLowLoss) {
  Tensor logits(Shape{2, 3});
  logits.at(0, 1) = 50.0f;
  logits.at(1, 2) = 50.0f;
  std::vector<std::uint8_t> y = {1, 2};
  const auto r = softmax_cross_entropy(logits, y);
  EXPECT_LT(r.loss, 1e-6);
  EXPECT_EQ(r.correct, 2u);
}

TEST(Loss, GradientRowsSumToZero) {
  Rng rng(2);
  Tensor logits = Tensor::uniform(Shape{3, 5}, -2.0f, 2.0f, rng);
  std::vector<std::uint8_t> y = {0, 2, 4};
  const auto r = softmax_cross_entropy(logits, y);
  for (std::size_t row = 0; row < 3; ++row) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 5; ++c) sum += r.grad_logits.at(row, c);
    EXPECT_NEAR(sum, 0.0f, 1e-5f);  // softmax-CE gradient rows sum to 0
  }
}

TEST(Loss, ValueOnlyMatchesFullVersion) {
  Rng rng(3);
  Tensor logits = Tensor::uniform(Shape{6, 4}, -3.0f, 3.0f, rng);
  std::vector<std::uint8_t> y = {0, 1, 2, 3, 1, 2};
  const auto full = softmax_cross_entropy(logits, y);
  std::size_t correct = 0;
  const double v = softmax_cross_entropy_value(logits, y, &correct);
  EXPECT_NEAR(v, full.loss, 1e-9);
  EXPECT_EQ(correct, full.correct);
}

TEST(Loss, BadLabelThrows) {
  Tensor logits(Shape{1, 3});
  std::vector<std::uint8_t> y = {3};
  EXPECT_THROW(softmax_cross_entropy(logits, y), CheckError);
}

// --- layer gradient checks --------------------------------------------------------

TEST(GradCheck, DenseOnly) {
  Rng rng(4);
  Model m(0.0);
  m.add(std::make_unique<Dense>(6, 4, rng));
  Batch b = make_random_batch(Shape{5, 6}, 4, rng);
  check_model_gradient(m, b);
}

TEST(GradCheck, DenseWithL2Reg) {
  Rng rng(5);
  Model m(0.05);
  m.add(std::make_unique<Dense>(4, 3, rng));
  Batch b = make_random_batch(Shape{3, 4}, 3, rng);
  check_model_gradient(m, b);
}

TEST(GradCheck, MlpWithRelu) {
  Rng rng(6);
  Model m(0.0);
  m.add(std::make_unique<Dense>(5, 8, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<Dense>(8, 3, rng));
  Batch b = make_random_batch(Shape{4, 5}, 3, rng);
  check_model_gradient(m, b);
}

TEST(GradCheck, ConvReluPoolDense) {
  Rng rng(7);
  Model m(0.0);
  m.add(std::make_unique<Conv2d>(2, 3, 3, 1, 1, 6, 6, rng));
  m.add(std::make_unique<Relu>());
  m.add(std::make_unique<MaxPool2d>(2, 2));
  m.add(std::make_unique<Flatten>());
  m.add(std::make_unique<Dense>(3 * 3 * 3, 4, rng));
  Batch b = make_random_batch(Shape{2, 2, 6, 6}, 4, rng);
  check_model_gradient(m, b);
}

TEST(GradCheck, PaperFmnistCnnTinyWidth) {
  Rng rng(8);
  ModelSpec spec;
  spec.image_h = spec.image_w = 8;  // small spatial dims for speed
  spec.channels = 1;
  spec.width_scale = 0.05;
  spec.l2_reg = 0.0;
  Model m = make_fmnist_cnn(spec, rng);
  Batch b = make_random_batch(Shape{2, 1, 8, 8}, 10, rng);
  check_model_gradient(m, b, 3e-2, 3e-3, 16);
}

// --- layer shape behaviour ---------------------------------------------------------

TEST(Dense, ForwardShapeAndBias) {
  Rng rng(9);
  Dense d(3, 2, rng);
  Tensor x = Tensor::zeros(Shape{4, 3});
  Tensor out = d.forward(x, false);
  EXPECT_TRUE((out.shape() == Shape{4, 2}));
  // Zero input -> output equals bias (zero-initialized).
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_EQ(out[i], 0.0f);
}

TEST(Dense, BackwardBeforeForwardThrows) {
  Rng rng(10);
  Dense d(3, 2, rng);
  Tensor g(Shape{1, 2});
  EXPECT_THROW(d.backward(g), CheckError);
}

TEST(Conv2d, OutputShapeSamePadding) {
  Rng rng(11);
  Conv2d c(1, 4, 5, 1, 2, 28, 28, rng);
  Tensor x(Shape{2, 1, 28, 28});
  Tensor out = c.forward(x, false);
  EXPECT_TRUE((out.shape() == Shape{2, 4, 28, 28}));
}

TEST(Conv2d, KnownValueIdentityKernel) {
  Rng rng(12);
  Conv2d c(1, 1, 1, 1, 0, 2, 2, rng);
  // Force weight = 2, bias = 1.
  auto params = c.params();
  params[0]->fill(2.0f);
  params[1]->fill(1.0f);
  Tensor x(Shape{1, 1, 2, 2});
  x.at(0, 0, 0, 1) = 3.0f;
  Tensor out = c.forward(x, false);
  EXPECT_EQ(out.at(0, 0, 0, 1), 7.0f);  // 2*3 + 1
  EXPECT_EQ(out.at(0, 0, 0, 0), 1.0f);  // 2*0 + 1
}

TEST(MaxPool2d, SelectsMaximaAndRoutesGradient) {
  MaxPool2d p(2, 2);
  Tensor x(Shape{1, 1, 2, 2});
  x.at(0, 0, 0, 0) = 1.0f;
  x.at(0, 0, 0, 1) = 5.0f;
  x.at(0, 0, 1, 0) = 2.0f;
  x.at(0, 0, 1, 1) = 3.0f;
  Tensor out = p.forward(x, true);
  ASSERT_EQ(out.numel(), 1u);
  EXPECT_EQ(out[0], 5.0f);
  Tensor g(Shape{1, 1, 1, 1});
  g[0] = 10.0f;
  Tensor gx = p.backward(g);
  EXPECT_EQ(gx.at(0, 0, 0, 1), 10.0f);
  EXPECT_EQ(gx.at(0, 0, 0, 0), 0.0f);
}

TEST(MaxPool2d, EvalForwardBetweenTrainForwardAndBackwardKeepsState) {
  // An eval forward with another batch size between a train forward and its
  // backward must not replace the shapes backward routes with.
  Rng rng(23);
  MaxPool2d p(2, 2);
  const Tensor x = Tensor::uniform(Shape{4, 2, 4, 4}, -1.0f, 1.0f, rng);
  p.forward(x, true);
  p.forward(Tensor::uniform(Shape{7, 2, 4, 4}, -1.0f, 1.0f, rng), false);
  const Tensor g = Tensor::full(Shape{4, 2, 2, 2}, 1.0f);
  Tensor gx;
  ASSERT_NO_THROW(gx = p.backward(g));
  ASSERT_TRUE((gx.shape() == Shape{4, 2, 4, 4}));
  // Each 2x2 window routes its one gradient to its maximum.
  for (std::size_t s = 0; s < 4; ++s)
    for (std::size_t c = 0; c < 2; ++c)
      for (std::size_t y = 0; y < 2; ++y)
        for (std::size_t xw = 0; xw < 2; ++xw) {
          float best = -2.0f, routed = 0.0f, at_best = 0.0f;
          for (std::size_t dy = 0; dy < 2; ++dy)
            for (std::size_t dx = 0; dx < 2; ++dx) {
              const std::size_t iy = 2 * y + dy, ix = 2 * xw + dx;
              routed += gx.at(s, c, iy, ix);
              if (x.at(s, c, iy, ix) > best) {
                best = x.at(s, c, iy, ix);
                at_best = gx.at(s, c, iy, ix);
              }
            }
          EXPECT_EQ(routed, 1.0f);
          EXPECT_EQ(at_best, 1.0f);
        }
}

TEST(Flatten, RoundTripsShape) {
  Flatten f;
  Tensor x(Shape{2, 3, 4, 5});
  Tensor out = f.forward(x, true);
  EXPECT_TRUE((out.shape() == Shape{2, 60}));
  Tensor g(Shape{2, 60});
  Tensor gx = f.backward(g);
  EXPECT_TRUE((gx.shape() == Shape{2, 3, 4, 5}));
}

// --- sample-block convolution ------------------------------------------------------

bool bit_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Samples [s0, s0 + count) of an NCHW batch.
Tensor sample_range(const Tensor& t, std::size_t s0, std::size_t count) {
  const Shape& sh = t.shape();
  const std::size_t per = sh[1] * sh[2] * sh[3];
  Tensor out(Shape{count, sh[1], sh[2], sh[3]});
  std::memcpy(out.data(), t.data() + s0 * per, count * per * sizeof(float));
  return out;
}

// One train step of a copy of `layer`: forward output, input gradient and
// parameter gradients.
struct ConvStep {
  Tensor out, grad_input, grad_weight, grad_bias;
};

ConvStep conv_train_step(const Conv2d& layer, const Tensor& x,
                         const Tensor& g) {
  Conv2d conv(layer);
  ConvStep r;
  r.out = conv.forward(x, true);
  r.grad_input = conv.backward(g);
  r.grad_weight = *conv.grads()[0];
  r.grad_bias = *conv.grads()[1];
  return r;
}

TEST(Conv2dBlocks, MatchAcrossThreadBudgetsAndPerSamplePasses) {
  Rng rng(40);
  // Stride 2 and pad 2 on a non-square image: blocks meet padding runs.
  const Conv2d conv(3, 4, 3, 2, 2, 7, 6, rng);
  Scheduler& sched = Scheduler::instance();
  for (const std::size_t n : {1, 7, 8, 9, 24, 33}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Tensor x = Tensor::uniform(Shape{n, 3, 7, 6}, -1.0f, 1.0f, rng);
    const Tensor g = Tensor::uniform(
        Shape{n, 4, conv.out_h(), conv.out_w()}, -1.0f, 1.0f, rng);
    sched.configure(1, 1);
    const ConvStep serial = conv_train_step(conv, x, g);
    sched.configure(4, 1);
    const ConvStep fanned = conv_train_step(conv, x, g);
    EXPECT_TRUE(bit_equal(serial.out, fanned.out));
    EXPECT_TRUE(bit_equal(serial.grad_input, fanned.grad_input));
    EXPECT_TRUE(bit_equal(serial.grad_weight, fanned.grad_weight));
    EXPECT_TRUE(bit_equal(serial.grad_bias, fanned.grad_bias));

    // Outputs and input gradients are per sample: each equals a one-sample
    // pass.
    for (std::size_t s = 0; s < n; ++s) {
      const ConvStep one =
          conv_train_step(conv, sample_range(x, s, 1), sample_range(g, s, 1));
      EXPECT_TRUE(bit_equal(sample_range(serial.out, s, 1), one.out))
          << "sample " << s;
      EXPECT_TRUE(
          bit_equal(sample_range(serial.grad_input, s, 1), one.grad_input))
          << "sample " << s;
    }
    // dW is the blocks' partials summed in block order; a one-block pass
    // from zeroed gradients yields that block's partial.
    Tensor dw(serial.grad_weight.shape());
    for (std::size_t s0 = 0; s0 < n; s0 += Conv2d::kBlockSamples) {
      const std::size_t bn = std::min(Conv2d::kBlockSamples, n - s0);
      const ConvStep block = conv_train_step(conv, sample_range(x, s0, bn),
                                             sample_range(g, s0, bn));
      for (std::size_t i = 0; i < dw.numel(); ++i)
        dw[i] += block.grad_weight[i];
    }
    EXPECT_TRUE(bit_equal(serial.grad_weight, dw));
    // db sums grad_output in sample order.
    const std::size_t plane = conv.out_h() * conv.out_w();
    for (std::size_t c = 0; c < 4; ++c) {
      double acc = 0.0;
      for (std::size_t s = 0; s < n; ++s)
        for (std::size_t i = 0; i < plane; ++i)
          acc += g.data()[(s * 4 + c) * plane + i];
      EXPECT_EQ(serial.grad_bias[c], static_cast<float>(acc));
    }
  }
  sched.configure(0, 1);
}

TEST(Conv2dBlocks, ScratchDoesNotGrowWithTheBatch) {
  // At budget 1 one chunk runs every block, so a 64-sample train step
  // needs no more scratch than an 8-sample one, apart from the cached
  // input.
  Rng rng(41);
  Scheduler::instance().configure(1, 1);
  Conv2d conv(2, 3, 3, 1, 1, 6, 6, rng);
  const auto scratch_after_step = [&](std::size_t n) {
    const Tensor out = conv.forward(
        Tensor::uniform(Shape{n, 2, 6, 6}, -1.0f, 1.0f, rng), true);
    conv.backward(Tensor::uniform(out.shape(), -1.0f, 1.0f, rng));
    return conv.scratch_bytes() - n * 2 * 6 * 6 * sizeof(float);
  };
  const std::size_t one_block = scratch_after_step(Conv2d::kBlockSamples);
  EXPECT_EQ(scratch_after_step(64), one_block);
  Scheduler::instance().configure(0, 1);
}

TEST(Conv2dBlocks, EvalForwardBetweenTrainForwardAndBackwardKeepsState) {
  // An eval forward with another batch size between a train forward and
  // its backward must leave the gradients as they would be without it.
  Rng rng(42);
  const Conv2d conv(2, 3, 3, 1, 1, 6, 6, rng);
  const Tensor x = Tensor::uniform(Shape{12, 2, 6, 6}, -1.0f, 1.0f, rng);
  Conv2d plain(conv), interleaved(conv);
  const Tensor out = plain.forward(x, true);
  interleaved.forward(x, true);
  interleaved.forward(Tensor::uniform(Shape{19, 2, 6, 6}, -1.0f, 1.0f, rng),
                      false);
  const Tensor g = Tensor::uniform(out.shape(), -1.0f, 1.0f, rng);
  EXPECT_TRUE(bit_equal(plain.backward(g), interleaved.backward(g)));
  EXPECT_TRUE(bit_equal(*plain.grads()[0], *interleaved.grads()[0]));
  EXPECT_TRUE(bit_equal(*plain.grads()[1], *interleaved.grads()[1]));
}

// --- parameter-only backward -------------------------------------------------------

// Runs the same train forward on two copies of `layer`, a full backward on
// one and backward_params on the other; returns (full, params-only)
// scratch_bytes after checking the parameter gradients are bit-equal.
template <typename L>
std::pair<std::size_t, std::size_t> full_vs_params_only_backward(
    const L& layer, const Tensor& x, Rng& rng) {
  L full(layer), params_only(layer);
  const Tensor out = full.forward(x, true);
  params_only.forward(x, true);
  const Tensor g = Tensor::uniform(out.shape(), -1.0f, 1.0f, rng);
  full.backward(g);
  params_only.backward_params(g);
  const auto gf = full.grads();
  const auto gp = params_only.grads();
  EXPECT_EQ(gf.size(), gp.size());
  for (std::size_t i = 0; i < gf.size(); ++i) {
    const std::span<const float> a = std::as_const(*gf[i]).span();
    const std::span<const float> b = std::as_const(*gp[i]).span();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "grads()[" << i << "]";
  }
  return {full.scratch_bytes(), params_only.scratch_bytes()};
}

TEST(ParamsOnlyBackward, ConvMatchesFullBackwardWithoutColumnGradients) {
  Rng rng(24);
  // 10 samples span two sample blocks.
  const std::size_t n = 10, in_c = 2, hw = 6, k = 3;
  const Conv2d conv(in_c, 3, k, 1, 1, hw, hw, rng);
  const Tensor x = Tensor::uniform(Shape{n, in_c, hw, hw}, -1.0f, 1.0f, rng);
  Scheduler& sched = Scheduler::instance();
  for (const std::size_t budget : {1, 4}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    sched.configure(budget, 1);
    const auto [full, params_only] =
        full_vs_params_only_backward(conv, x, rng);
    // Full backward writes each block's column gradients over the block's
    // columns, so it owns no scratch beyond what params-only owns.
    EXPECT_GT(params_only, 0u);
    EXPECT_EQ(full, params_only);
  }
  sched.configure(0, 1);
}

TEST(ParamsOnlyBackward, DenseMatchesFullBackward) {
  Rng rng(25);
  const Dense dense(7, 5, rng);
  const Tensor x = Tensor::uniform(Shape{9, 7}, -1.0f, 1.0f, rng);
  const auto [full, params_only] = full_vs_params_only_backward(dense, x, rng);
  EXPECT_EQ(full, params_only);  // dX is a temporary, not scratch
}

// --- sliced evaluation -------------------------------------------------------------

// evaluate() streams kEvalSliceSamples samples at a time; its loss and
// accuracy must equal one whole-batch pass bit for bit, for batches below,
// at and around the slice width and spanning several slices.
void expect_sliced_evaluate_matches_whole_batch(Model& model,
                                                Shape sample_shape,
                                                std::size_t classes) {
  constexpr std::size_t S = kEvalSliceSamples;
  Rng rng(26);
  for (const std::size_t n : {std::size_t{1}, S - 1, S, S + 1, 5 * S + 3}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const Shape shape =
        sample_shape.rank() == 1
            ? Shape{n, sample_shape[0]}
            : Shape{n, sample_shape[0], sample_shape[1], sample_shape[2]};
    const Batch b = make_random_batch(shape, classes, rng);
    std::size_t correct = 0;
    const double loss =
        softmax_cross_entropy_value(model.forward(b.x, false), b.y, &correct);
    const EvalResult r = model.evaluate(b);
    EXPECT_EQ(r.loss, loss);
    EXPECT_EQ(r.accuracy,
              static_cast<double>(correct) / static_cast<double>(n));
  }
}

TEST(SlicedEvaluate, FmnistCnnMatchesWholeBatch) {
  Rng rng(27);
  ModelSpec spec;
  spec.width_scale = 0.1;
  spec.l2_reg = 0.0;
  Model m = make_fmnist_cnn(spec, rng);
  expect_sliced_evaluate_matches_whole_batch(m, Shape{1, 28, 28}, 10);
}

TEST(SlicedEvaluate, CifarCnnMatchesWholeBatch) {
  Rng rng(28);
  ModelSpec spec;
  spec.image_h = spec.image_w = 32;
  spec.channels = 3;
  spec.width_scale = 0.1;
  spec.l2_reg = 0.0;
  Model m = make_cifar_cnn(spec, rng);
  expect_sliced_evaluate_matches_whole_batch(m, Shape{3, 32, 32}, 10);
}

TEST(SlicedEvaluate, MlpMatchesWholeBatch) {
  Rng rng(29);
  Model m = make_mlp(20, 16, 5, 0.0, rng);
  expect_sliced_evaluate_matches_whole_batch(m, Shape{20}, 5);
}

TEST(SlicedEvaluate, ScratchDoesNotGrowWithTheBatch) {
  Rng rng(30);
  ModelSpec spec;
  spec.width_scale = 0.1;
  Model m = make_fmnist_cnn(spec, rng);
  m.evaluate(make_random_batch(Shape{kEvalSliceSamples, 1, 28, 28}, 10, rng));
  const std::size_t one_slice = m.owned_bytes();
  m.evaluate(make_random_batch(Shape{160, 1, 28, 28}, 10, rng));
  EXPECT_EQ(m.owned_bytes(), one_slice);
}

// --- shared block scratch ----------------------------------------------------------

// Parameter plus gradient bytes of one layer.
std::size_t param_grad_bytes(Layer& layer) {
  std::size_t bytes = 0;
  for (Tensor* p : layer.params()) bytes += p->owned_bytes();
  for (Tensor* g : layer.grads()) bytes += g->owned_bytes();
  return bytes;
}

TEST(SharedBlockScratch, ConvLayersShareOneSetPerChunk) {
  // make_fmnist_cnn at width 0.15 (conv channels 5 and 10, 154 hidden
  // units), built layer by layer to keep a pointer to each layer.
  ModelSpec spec;
  spec.width_scale = 0.15;
  const std::size_t train_n = 24;  // 3 sample blocks
  const std::size_t blk = Conv2d::kBlockSamples;
  Scheduler& sched = Scheduler::instance();
  for (const std::size_t budget : {1, 4}) {
    SCOPED_TRACE("budget=" + std::to_string(budget));
    sched.configure(budget, 1);
    Rng rng(31);
    Model m(spec.l2_reg);
    std::vector<Layer*> layers;
    const auto add = [&](LayerPtr layer) {
      layers.push_back(layer.get());
      m.add(std::move(layer));
    };
    // Per conv layer: the layer and the bytes of its cached train input.
    std::vector<std::pair<const Conv2d*, std::size_t>> convs;
    // Floats of each buffer of one set, sized by the largest conv layer.
    std::size_t cols = 0, out = 0, dw = 0;
    const auto add_conv = [&](std::size_t in_c, std::size_t out_c,
                              std::size_t hw) {
      const std::size_t col_rows = in_c * 5 * 5;
      const std::size_t col_cols = hw * hw;  // 5x5, stride 1, pad 2
      cols = std::max(cols, col_rows * blk * col_cols);
      out = std::max(out, out_c * blk * col_cols);
      dw = std::max(dw, out_c * col_rows);
      auto conv = std::make_unique<Conv2d>(in_c, out_c, 5, 1, 2, hw, hw, rng);
      convs.emplace_back(conv.get(), train_n * in_c * hw * hw * sizeof(float));
      add(std::move(conv));
      add(std::make_unique<Relu>());
      add(std::make_unique<MaxPool2d>(2, 2));
    };
    add_conv(1, 5, 28);
    add_conv(5, 10, 14);
    add(std::make_unique<Flatten>());
    add(std::make_unique<Dense>(10 * 7 * 7, 154, rng));
    add(std::make_unique<Relu>());
    add(std::make_unique<Dense>(154, 10, rng));
    Rng factory_rng(31);
    ASSERT_EQ(m.params_flat(),
              make_fmnist_cnn(spec, factory_rng).params_flat());

    m.forward_backward(
        make_random_batch(Shape{train_n, 1, 28, 28}, 10, rng));
    m.evaluate(make_random_batch(Shape{160, 1, 28, 28}, 10, rng));

    // A conv layer's own bytes are its cached input alone.
    for (const auto& [conv, input_bytes] : convs)
      EXPECT_EQ(conv->scratch_bytes(), input_bytes);
    // Training ran min(3, budget) chunks of one block each, every one
    // holding one dW partial; evaluation's 32-sample slices ran
    // min(4, budget) chunks. The sets are counted once.
    const std::size_t train_chunks = std::min<std::size_t>(3, budget);
    const std::size_t eval_chunks = std::min<std::size_t>(4, budget);
    std::size_t expected =
        (eval_chunks * (cols + out) + train_chunks * dw) * sizeof(float);
    for (Layer* layer : layers)
      expected += param_grad_bytes(*layer) + layer->scratch_bytes();
    EXPECT_EQ(m.owned_bytes(), expected);
  }
  sched.configure(0, 1);
}

TEST(SharedBlockScratch, CloneSharesNothingWithItsSource) {
  // A clone starts with fresh, empty block scratch and no train caches,
  // whether its source was last evaluated or last trained: it owns its
  // parameters and gradients alone. Training a model and its clone at the
  // same time on two threads, as the engine's fan-out chunks do, must touch
  // no common buffer (the tsan leg checks this) and give the same gradients
  // bit for bit.
  Rng rng(32);
  ModelSpec spec;
  spec.width_scale = 0.15;
  Model m = make_fmnist_cnn(spec, rng);
  const Batch b = make_random_batch(Shape{24, 1, 28, 28}, 10, rng);
  Scheduler::instance().configure(4, 1);
  // Evaluation grows the block scratch and caches nothing.
  m.evaluate(b);
  const std::size_t params_and_grads = 2 * m.num_params() * sizeof(float);
  EXPECT_GT(m.owned_bytes(), params_and_grads);
  Model c = m.clone();
  EXPECT_EQ(c.owned_bytes(), params_and_grads);

  std::thread other([&] { c.forward_backward(b); });
  m.forward_backward(b);
  other.join();
  EXPECT_EQ(grads_of(m), grads_of(c));

  // Training left every layer's train cache in m: conv inputs, ReLU masks,
  // pooling argmaxes and the dense inputs. None of them carries over.
  EXPECT_GT(m.owned_bytes(), params_and_grads);
  Model t = m.clone();
  EXPECT_EQ(t.owned_bytes(), params_and_grads);
  std::thread trained([&] { t.forward_backward(b); });
  m.forward_backward(b);
  trained.join();
  EXPECT_EQ(grads_of(m), grads_of(t));
  Scheduler::instance().configure(0, 1);
}

// --- model flat-vector interface -----------------------------------------------------

TEST(Model, FlatParamRoundTrip) {
  Rng rng(13);
  Model m = make_mlp(6, 10, 4, 0.0, rng);
  ParamVec w = m.params_flat();
  EXPECT_EQ(w.size(), m.num_params());
  ParamVec w2 = w;
  for (auto& v : w2) v += 1.0f;
  m.set_params_flat(w2);
  EXPECT_EQ(m.params_flat(), w2);
  EXPECT_THROW(m.set_params_flat(ParamVec(w.size() + 1)), CheckError);
}

TEST(Model, NumParamsMatchesArchitecture) {
  Rng rng(14);
  Model m = make_logistic(10, 3, 0.0, rng);
  EXPECT_EQ(m.num_params(), 10u * 3u + 3u);
}

TEST(Model, FactoryPaperCnnShapes) {
  Rng rng(15);
  ModelSpec fm;  // defaults: 28x28x1
  fm.width_scale = 1.0;
  Model fmnist = make_fmnist_cnn(fm, rng);
  // conv1: 32*(1*5*5)+32, conv2: 64*(32*5*5)+64, fc: 1024*(64*7*7)+1024,
  // out: 10*1024+10.
  const std::size_t expect = 32 * 25 + 32 + 64 * 32 * 25 + 64 +
                             1024 * 64 * 7 * 7 + 1024 + 10 * 1024 + 10;
  EXPECT_EQ(fmnist.num_params(), expect);

  ModelSpec cf;
  cf.image_h = cf.image_w = 32;
  cf.channels = 3;
  cf.width_scale = 1.0;
  Model cifar = make_cifar_cnn(cf, rng);
  Rng brng(16);
  Batch b;
  b.x = Tensor::uniform(Shape{1, 3, 32, 32}, -1.0f, 1.0f, brng);
  b.y = {0};
  // Forward must produce 10 logits without shape errors.
  Tensor logits = cifar.forward(b.x, false);
  EXPECT_TRUE((logits.shape() == Shape{1, 10}));
}

TEST(Model, TrainingReducesLossOnSeparableData) {
  // Two well-separated Gaussian blobs; logistic regression + plain gradient
  // steps must fit them.
  Rng rng(17);
  const std::size_t n = 60, dim = 4;
  Batch b;
  b.x = Tensor(Shape{n, dim});
  b.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = i % 2;
    b.y[i] = static_cast<std::uint8_t>(cls);
    for (std::size_t d = 0; d < dim; ++d)
      b.x.at(i, d) = static_cast<float>(rng.normal(cls ? 2.0 : -2.0, 0.5));
  }
  Model m = make_logistic(dim, 2, 0.0, rng);
  const double loss0 = m.evaluate(b).loss;
  for (int step = 0; step < 60; ++step) {
    m.forward_backward(b);
    ParamVec w = m.params_flat();
    ParamVec g = grads_of(m);
    axpy(-0.5f, std::span<const float>(g), std::span<float>(w));
    m.set_params_flat(w);
  }
  const auto final = m.evaluate(b);
  EXPECT_LT(final.loss, 0.3 * loss0);
  EXPECT_GT(final.accuracy, 0.95);
}

TEST(Model, ZeroGradClearsBuffers) {
  Rng rng(18);
  Model m = make_mlp(3, 4, 2, 0.0, rng);
  Batch b = make_random_batch(Shape{2, 3}, 2, rng);
  m.forward_backward(b);
  ParamVec g = grads_of(m);
  bool any_nonzero = false;
  for (float v : g) any_nonzero |= (v != 0.0f);
  EXPECT_TRUE(any_nonzero);
  m.zero_grad();
  for (float v : grads_of(m)) EXPECT_EQ(v, 0.0f);
}

TEST(Model, EvaluateMatchesForwardBackwardLoss) {
  Rng rng(19);
  Model m = make_mlp(5, 6, 3, 0.01, rng);
  Batch b = make_random_batch(Shape{4, 5}, 3, rng);
  const double l1 = m.forward_backward(b).loss;
  const double l2 = m.evaluate(b).loss;
  EXPECT_NEAR(l1, l2, 1e-9);
}

TEST(Model, CloneIsDeepAndBehaviorallyIdentical) {
  // clone() backs the FL engine's per-thread scratch replicas: it must copy
  // parameters exactly and share no buffers with the original.
  Rng rng(20);
  ModelSpec ms;
  ms.width_scale = 0.05;
  Model m = make_fmnist_cnn(ms, rng);
  Batch b = make_random_batch(Shape{2, 1, 28, 28}, 10, rng);

  Model c = m.clone();
  EXPECT_EQ(c.num_params(), m.num_params());
  EXPECT_EQ(c.params_flat(), m.params_flat());
  EXPECT_EQ(c.l2_reg(), m.l2_reg());

  // Same forward/backward numbers, bit for bit.
  const EvalResult rm = m.forward_backward(b);
  const EvalResult rc = c.forward_backward(b);
  EXPECT_EQ(rm.loss, rc.loss);
  EXPECT_EQ(rm.accuracy, rc.accuracy);
  EXPECT_EQ(grads_of(m), grads_of(c));

  // Mutating the clone leaves the original untouched (deep copy).
  ParamVec w = c.params_flat();
  for (auto& v : w) v += 1.0f;
  c.set_params_flat(w);
  EXPECT_NE(c.params_flat(), m.params_flat());
}

}  // namespace
}  // namespace fedl::nn
