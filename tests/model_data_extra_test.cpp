// Additional coverage for the tensor/nn/data layers: initializer bounds,
// convolution geometry corner cases, loss edge cases, Dirichlet extremes,
// online-stream floors, and synthetic-preset difficulty ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>

#include "common/rng.h"
#include "data/online.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/factory.h"
#include "nn/pool.h"

namespace fedl {
namespace {

TEST(TensorInit, UniformRespectsBounds) {
  Rng rng(1);
  Tensor t = Tensor::uniform(Shape{50, 50}, -0.25f, 0.75f, rng);
  float lo = t[0], hi = t[0];
  for (std::size_t i = 0; i < t.numel(); ++i) {
    lo = std::min(lo, t[i]);
    hi = std::max(hi, t[i]);
  }
  EXPECT_GE(lo, -0.25f);
  EXPECT_LT(hi, 0.75f);
  EXPECT_LT(lo, 0.0f);  // actually spans the range
  EXPECT_GT(hi, 0.5f);
}

TEST(ConvGeometry, StrideTwoNoPad) {
  Rng rng(2);
  nn::Conv2d c(1, 2, 3, 2, 0, 9, 9, rng);
  EXPECT_EQ(c.out_h(), 4u);
  EXPECT_EQ(c.out_w(), 4u);
  Tensor x(Shape{1, 1, 9, 9});
  Tensor y = c.forward(x, false);
  EXPECT_TRUE((y.shape() == Shape{1, 2, 4, 4}));
}

TEST(ConvGeometry, KernelEqualsImage) {
  Rng rng(3);
  nn::Conv2d c(2, 3, 4, 1, 0, 4, 4, rng);
  EXPECT_EQ(c.out_h(), 1u);
  Tensor x(Shape{2, 2, 4, 4});
  Tensor y = c.forward(x, false);
  EXPECT_TRUE((y.shape() == Shape{2, 3, 1, 1}));
}

TEST(ConvGeometry, BatchIndependence) {
  // Processing a two-sample batch must equal processing each sample alone.
  Rng rng(4);
  nn::Conv2d c(1, 2, 3, 1, 1, 5, 5, rng);
  Tensor both = Tensor::uniform(Shape{2, 1, 5, 5}, -1.0f, 1.0f, rng);
  Tensor one(Shape{1, 1, 5, 5});
  for (std::size_t i = 0; i < 25; ++i) one[i] = both[i];

  Tensor y_both = c.forward(both, false);
  Tensor y_one = c.forward(one, false);
  for (std::size_t i = 0; i < y_one.numel(); ++i)
    EXPECT_FLOAT_EQ(y_both[i], y_one[i]);
}

TEST(MaxPool, NonSquareStrideWindowCombos) {
  nn::MaxPool2d p(3, 2);  // the CIFAR CNN's pool
  Tensor x(Shape{1, 1, 7, 7});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  Tensor y = p.forward(x, false);
  EXPECT_TRUE((y.shape() == Shape{1, 1, 3, 3}));
  // Max of the last 3x3 window is the bottom-right corner value 48.
  EXPECT_EQ(y[y.numel() - 1], 48.0f);
}

TEST(Relu, TrainVsEvalForwardIdentical) {
  Rng rng(5);
  nn::Relu r;
  Tensor x = Tensor::uniform(Shape{3, 4}, -1.0f, 1.0f, rng);
  Tensor a = r.forward(x, true);
  Tensor b = r.forward(x, false);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(Dense, GradAccumulatesAcrossBackwardCalls) {
  Rng rng(6);
  nn::Dense d(2, 2, rng);
  Tensor x = Tensor::full(Shape{1, 2}, 1.0f);
  Tensor g = Tensor::full(Shape{1, 2}, 1.0f);
  d.forward(x, true);
  d.backward(g);
  const float once = (*d.grads()[0])[0];
  d.forward(x, true);
  d.backward(g);
  EXPECT_FLOAT_EQ((*d.grads()[0])[0], 2.0f * once);  // += semantics
  d.zero_grad();
  EXPECT_EQ((*d.grads()[0])[0], 0.0f);
}

TEST(Factory, WidthScaleNeverProducesZeroUnits) {
  Rng rng(7);
  nn::ModelSpec spec;
  spec.width_scale = 0.001;  // scaled(32, 0.001) would floor to 0
  nn::Model m = nn::make_fmnist_cnn(spec, rng);
  Tensor x(Shape{1, 1, 28, 28});
  Tensor y = m.forward(x, false);
  EXPECT_TRUE((y.shape() == Shape{1, 10}));
}

// --- data extras ------------------------------------------------------------------

TEST(SyntheticPresets, CifarIsHarderThanFmnist) {
  // Difficulty proxy: between-class prototype distance over noise level.
  auto snr = [](const data::SyntheticSpec& spec) {
    data::Dataset ds = data::make_synthetic(spec);
    const std::size_t elems = ds.sample_numel();
    std::vector<double> m0(elems, 0.0), m1(elems, 0.0);
    std::size_t n0 = 0, n1 = 0;
    for (std::size_t i = 0; i < ds.size(); ++i) {
      const float* img = ds.images().data() + i * elems;
      if (ds.labels()[i] == 0) {
        for (std::size_t e = 0; e < elems; ++e) m0[e] += img[e];
        ++n0;
      } else if (ds.labels()[i] == 1) {
        for (std::size_t e = 0; e < elems; ++e) m1[e] += img[e];
        ++n1;
      }
    }
    double dist = 0.0;
    for (std::size_t e = 0; e < elems; ++e) {
      const double d = m0[e] / n0 - m1[e] / n1;
      dist += d * d;
    }
    // Normalize by dimension and noise.
    return std::sqrt(dist / elems) / spec.noise_stddev;
  };
  EXPECT_GT(snr(data::fmnist_like_spec(600, 3)),
            snr(data::cifar_like_spec(600, 3)));
}

TEST(OnlineStream, MinSamplesFloorBindsOnTinyPartitions) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(40, 13));
  data::Partition p(1);
  for (std::size_t i = 0; i < 6; ++i) p[0].push_back(i);
  data::OnlineDataSpec spec;
  spec.poisson_mean_frac = 0.01;  // Poisson draws ~0
  spec.min_samples = 4;
  data::OnlineDataStream stream(p, spec);
  for (int t = 0; t < 10; ++t) {
    stream.advance_epoch();
    EXPECT_GE(stream.epoch_size(0), 4u);
    EXPECT_LE(stream.epoch_size(0), 6u);
  }
}

TEST(OnlineStream, DeterministicForSeed) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(200, 15));
  Rng r1(15), r2(15);
  auto p1 = data::partition_iid(ds, 3, r1);
  auto p2 = data::partition_iid(ds, 3, r2);
  data::OnlineDataSpec spec;
  spec.seed = 77;
  data::OnlineDataStream s1(p1, spec), s2(p2, spec);
  for (int t = 0; t < 5; ++t) {
    s1.advance_epoch();
    s2.advance_epoch();
    for (std::size_t k = 0; k < 3; ++k)
      EXPECT_EQ(s1.epoch_indices(k), s2.epoch_indices(k));
  }
}

TEST(Partition, LabelDistributionRowsSumToOne) {
  data::Dataset ds = data::make_synthetic(data::fmnist_like_spec(300, 17));
  Rng rng(17);
  const auto p = data::partition_iid(ds, 4, rng);
  for (const auto& probs : data::label_distribution(ds, p)) {
    double sum = 0.0;
    for (double v : probs) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace fedl
