// Tests for the data substrate: synthetic generators, partitioners, and the
// Poisson online streams.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>

#include "common/rng.h"
#include "common/stats.h"
#include "data/online.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "parallel/scheduler.h"

namespace fedl::data {
namespace {

TEST(Synthetic, ShapesMatchPresets) {
  Dataset fm = make_synthetic(fmnist_like_spec(50, 1));
  EXPECT_EQ(fm.size(), 50u);
  EXPECT_TRUE((fm.sample_shape() == Shape{1, 28, 28}));
  EXPECT_EQ(fm.num_classes(), 10u);

  Dataset cf = make_synthetic(cifar_like_spec(30, 1));
  EXPECT_TRUE((cf.sample_shape() == Shape{3, 32, 32}));
}

TEST(Synthetic, DeterministicInSeed) {
  Dataset a = make_synthetic(fmnist_like_spec(40, 7));
  Dataset b = make_synthetic(fmnist_like_spec(40, 7));
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.labels(), b.labels());
  for (std::size_t i = 0; i < a.images().numel(); ++i)
    EXPECT_EQ(a.images()[i], b.images()[i]);
  Dataset c = make_synthetic(fmnist_like_spec(40, 8));
  EXPECT_NE(a.images()[0], c.images()[0]);
}

TEST(Synthetic, LabelsInRange) {
  Dataset d = make_synthetic(fmnist_like_spec(200, 3));
  for (auto y : d.labels()) EXPECT_LT(y, 10);
}

TEST(Synthetic, AllClassesRepresented) {
  Dataset d = make_synthetic(fmnist_like_spec(500, 5));
  std::set<int> seen;
  for (auto y : d.labels()) seen.insert(y);
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Synthetic, LabelNoiseApplied) {
  SyntheticSpec clean = fmnist_like_spec(400, 9);
  SyntheticSpec noisy = clean;
  noisy.label_noise = 1.0;  // every label resampled uniformly
  Dataset a = make_synthetic(clean);
  Dataset b = make_synthetic(noisy);
  std::size_t differ = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    differ += (a.labels()[i] != b.labels()[i]);
  // Resampled uniformly over 10 classes: ~90% differ.
  EXPECT_GT(differ, a.size() / 2);
}

TEST(Synthetic, TrainTestSharePrototypesButNotNoise) {
  TrainTest tt = make_synthetic_train_test(fmnist_like_spec(100, 11), 60);
  EXPECT_EQ(tt.train.size(), 100u);
  EXPECT_EQ(tt.test.size(), 60u);
  // Independent draws: first images must differ.
  EXPECT_NE(tt.train.images()[0], tt.test.images()[0]);
}

TEST(Synthetic, ClassSignalExists) {
  // Mean image of one class must differ from another's beyond noise level:
  // the generator carries class signal.
  Dataset d = make_synthetic(fmnist_like_spec(600, 13));
  const std::size_t elems = d.sample_numel();
  std::vector<double> mean0(elems, 0.0), mean1(elems, 0.0);
  std::size_t n0 = 0, n1 = 0;
  for (std::size_t i = 0; i < d.size(); ++i) {
    const float* img = d.images().data() + i * elems;
    if (d.labels()[i] == 0) {
      for (std::size_t e = 0; e < elems; ++e) mean0[e] += img[e];
      ++n0;
    } else if (d.labels()[i] == 1) {
      for (std::size_t e = 0; e < elems; ++e) mean1[e] += img[e];
      ++n1;
    }
  }
  ASSERT_GT(n0, 10u);
  ASSERT_GT(n1, 10u);
  double dist = 0.0;
  for (std::size_t e = 0; e < elems; ++e) {
    const double diff = mean0[e] / n0 - mean1[e] / n1;
    dist += diff * diff;
  }
  EXPECT_GT(std::sqrt(dist), 1.0);
}

// The generator as one serial loop over (class, pixel noise, label noise)
// per sample, with its prototype bank: the oracle the two-pass synthesis
// must reproduce byte for byte.
namespace serial_reference {

std::vector<float> render(const SyntheticSpec& spec, double fx, double fy,
                          double phase, double blob_x, double blob_y) {
  const std::size_t h = spec.image_h;
  const std::size_t w = spec.image_w;
  std::vector<float> img(spec.channels * h * w);
  for (std::size_t ch = 0; ch < spec.channels; ++ch) {
    const double chphase = phase + 0.9 * static_cast<double>(ch);
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const double u = static_cast<double>(x) / static_cast<double>(w);
        const double v = static_cast<double>(y) / static_cast<double>(h);
        double val =
            0.5 * std::sin(2.0 * M_PI * (fx * u + fy * v) + chphase) +
            0.3 * std::cos(2.0 * M_PI * (fy * u - fx * v));
        const double dx = u - blob_x;
        const double dy = v - blob_y;
        val += 1.2 * std::exp(-(dx * dx + dy * dy) / 0.02);
        img[(ch * h + y) * w + x] = static_cast<float>(val);
      }
    }
  }
  return img;
}

std::vector<std::vector<float>> prototypes(const SyntheticSpec& spec,
                                           Rng& rng) {
  const double o = spec.prototype_overlap;
  const auto mix = [&](double class_value, double common_value) {
    return (1.0 - o) * class_value + o * common_value + 0.02 * rng.normal();
  };
  const double last = std::max<double>(1.0, spec.num_classes - 1);
  std::vector<std::vector<float>> protos;
  for (std::size_t c = 0; c < spec.num_classes; ++c) {
    const double base = static_cast<double>(c);
    const double fx = mix(0.5 + 0.45 * base, 2.5);
    const double fy = mix(0.3 + 0.55 * base, 2.8);
    const double phase = mix(base * 0.7, 1.5);
    const double blob_x = mix(0.1 + 0.8 * (base / last), 0.5);
    const double blob_y = mix(0.9 - 0.8 * (base / last), 0.5);
    protos.push_back(render(spec, fx, fy, phase, blob_x, blob_y));
  }
  return protos;
}

Dataset generate(const SyntheticSpec& spec,
                 const std::vector<std::vector<float>>& protos,
                 std::size_t count, Rng& rng) {
  const std::size_t elems = spec.channels * spec.image_h * spec.image_w;
  Tensor images(Shape{count, spec.channels, spec.image_h, spec.image_w});
  std::vector<std::uint8_t> labels(count);
  float* dst = images.data();
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t cls = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec.num_classes) - 1));
    const auto& proto = protos[cls];
    for (std::size_t e = 0; e < elems; ++e)
      dst[i * elems + e] =
          static_cast<float>(spec.signal_scale) * proto[e] +
          static_cast<float>(rng.normal(0.0, spec.noise_stddev));
    std::uint8_t y = static_cast<std::uint8_t>(cls);
    if (spec.label_noise > 0.0 && rng.bernoulli(spec.label_noise))
      y = static_cast<std::uint8_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.num_classes) - 1));
    labels[i] = y;
  }
  return Dataset(std::move(images), std::move(labels), spec.num_classes);
}

TrainTest train_test(const SyntheticSpec& spec, std::size_t test_samples) {
  Rng rng(spec.seed);
  const auto protos = prototypes(spec, rng);
  TrainTest tt;
  tt.train = generate(spec, protos, spec.num_samples, rng);
  SyntheticSpec clean = spec;
  clean.label_noise = 0.0;
  tt.test = generate(clean, protos, test_samples, rng);
  return tt;
}

}  // namespace serial_reference

void expect_same_bytes(const Dataset& got, const Dataset& want,
                       const std::string& what) {
  ASSERT_TRUE(got.images().shape() == want.images().shape()) << what;
  EXPECT_EQ(got.labels(), want.labels()) << what;
  EXPECT_EQ(std::memcmp(got.images().data(), want.images().data(),
                        want.images().numel() * sizeof(float)),
            0)
      << what;
}

TEST(Synthetic, MatchesSerialReferenceAtEveryBudget) {
  // A 1×3×5 image has an odd pixel count, so a cached normal carries from
  // one sample's pixels into the next sample's draws.
  SyntheticSpec tiny;
  tiny.image_h = 3;
  tiny.image_w = 5;
  tiny.noise_stddev = 0.7;
  tiny.seed = 2;
  std::vector<SyntheticSpec> specs;
  for (const std::size_t n : {1, 7, 33})
    for (const double label_noise : {0.0, 0.2})
      for (SyntheticSpec spec :
           {fmnist_like_spec(n, 3), cifar_like_spec(n, 5), tiny}) {
        spec.num_samples = n;
        spec.label_noise = label_noise;
        specs.push_back(spec);
      }
  Scheduler& sched = Scheduler::instance();
  for (const std::size_t budget : {1, 4}) {
    sched.configure(budget, 1);
    for (const SyntheticSpec& spec : specs) {
      const std::string what =
          "budget=" + std::to_string(budget) + " shape=" +
          std::to_string(spec.channels) + "x" + std::to_string(spec.image_h) +
          "x" + std::to_string(spec.image_w) +
          " n=" + std::to_string(spec.num_samples) +
          " label_noise=" + std::to_string(spec.label_noise);
      const TrainTest got = make_synthetic_train_test(spec, 9);
      const TrainTest want = serial_reference::train_test(spec, 9);
      expect_same_bytes(got.train, want.train, "train " + what);
      expect_same_bytes(got.test, want.test, "test " + what);
    }
  }
  sched.configure(0, 1);
}

// --- dataset views -----------------------------------------------------------

TEST(Dataset, GatherCopiesRequestedSamples) {
  Dataset d = make_synthetic(fmnist_like_spec(20, 15));
  auto batch = d.gather({3, 7, 11});
  EXPECT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.y[1], d.labels()[7]);
  const std::size_t elems = d.sample_numel();
  for (std::size_t e = 0; e < elems; ++e)
    EXPECT_EQ(batch.x[1 * elems + e], d.images()[7 * elems + e]);
}

TEST(Dataset, GatherOutOfRangeThrows) {
  Dataset d = make_synthetic(fmnist_like_spec(5, 15));
  EXPECT_THROW(d.gather({5}), CheckError);
}

TEST(Dataset, HeadLimits) {
  Dataset d = make_synthetic(fmnist_like_spec(10, 15));
  EXPECT_EQ(d.head(4).size(), 4u);
  EXPECT_EQ(d.head(0).size(), 10u);
  EXPECT_EQ(d.head(99).size(), 10u);
}

TEST(Dataset, IndicesOfClassConsistent) {
  Dataset d = make_synthetic(fmnist_like_spec(100, 15));
  std::size_t total = 0;
  for (std::size_t c = 0; c < d.num_classes(); ++c) {
    for (std::size_t i : d.indices_of_class(c))
      EXPECT_EQ(d.labels()[i], c);
    total += d.indices_of_class(c).size();
  }
  EXPECT_EQ(total, d.size());
}

// --- partitioners ----------------------------------------------------------------

class PartitionProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionProperties, IidConservesAndIsDisjoint) {
  Dataset d = make_synthetic(fmnist_like_spec(200, GetParam()));
  Rng rng(GetParam());
  Partition p = partition_iid(d, 8, rng);
  EXPECT_EQ(p.size(), 8u);
  EXPECT_EQ(partition_total(p), d.size());
  EXPECT_TRUE(partition_disjoint(p));
  for (const auto& client : p)
    EXPECT_NEAR(static_cast<double>(client.size()), 25.0, 1.0);
}

TEST_P(PartitionProperties, NonIidPrincipalConcentratesLabels) {
  Dataset d = make_synthetic(fmnist_like_spec(600, GetParam()));
  Rng rng(GetParam() + 1);
  Partition p = partition_noniid_principal(d, 10, 2, 0.8, rng);
  EXPECT_TRUE(partition_disjoint(p));
  const auto dist = label_distribution(d, p);
  // Each client's two largest label shares should carry most of the mass
  // (0.8 principal fraction; pool drain can dilute individual clients, so
  // check a per-client floor plus a strong average).
  double avg_top2 = 0.0;
  for (const auto& probs : dist) {
    std::vector<double> sorted = probs;
    std::sort(sorted.rbegin(), sorted.rend());
    EXPECT_GT(sorted[0] + sorted[1], 0.4);
    avg_top2 += sorted[0] + sorted[1];
  }
  EXPECT_GT(avg_top2 / static_cast<double>(dist.size()), 0.6);
}

TEST_P(PartitionProperties, DirichletConservesAndSkews) {
  Dataset d = make_synthetic(fmnist_like_spec(400, GetParam()));
  Rng rng(GetParam() + 2);
  Partition skewed = partition_dirichlet(d, 6, 0.1, rng);
  EXPECT_EQ(partition_total(skewed), d.size());
  EXPECT_TRUE(partition_disjoint(skewed));

  Rng rng2(GetParam() + 3);
  Partition balanced = partition_dirichlet(d, 6, 100.0, rng2);
  // Low alpha should produce higher max-label concentration than high alpha.
  auto max_concentration = [&](const Partition& p) {
    double worst = 0.0;
    for (const auto& probs : label_distribution(d, p))
      for (double v : probs) worst = std::max(worst, v);
    return worst;
  };
  EXPECT_GT(max_concentration(skewed), max_concentration(balanced));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperties,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(Partition, IidHandlesMoreClientsThanSamples) {
  Dataset d = make_synthetic(fmnist_like_spec(3, 21));
  Rng rng(21);
  Partition p = partition_iid(d, 10, rng);
  EXPECT_EQ(partition_total(p), 3u);
}

// --- online stream -----------------------------------------------------------------

TEST(OnlineStream, SizesRespectBounds) {
  Dataset d = make_synthetic(fmnist_like_spec(400, 23));
  Rng rng(23);
  Partition p = partition_iid(d, 4, rng);
  OnlineDataSpec spec;
  spec.poisson_mean_frac = 0.5;
  spec.min_samples = 3;
  OnlineDataStream stream(p, spec);
  for (int epoch = 0; epoch < 20; ++epoch) {
    stream.advance_epoch();
    for (std::size_t k = 0; k < 4; ++k) {
      const std::size_t n = stream.epoch_size(k);
      EXPECT_GE(n, spec.min_samples);
      EXPECT_LE(n, p[k].size());
    }
  }
}

TEST(OnlineStream, IndicesComeFromOwnPartition) {
  Dataset d = make_synthetic(fmnist_like_spec(300, 29));
  Rng rng(29);
  Partition p = partition_iid(d, 3, rng);
  std::vector<std::set<std::size_t>> owned(3);
  for (std::size_t k = 0; k < 3; ++k)
    owned[k] = {p[k].begin(), p[k].end()};
  OnlineDataStream stream(p, {});
  for (int epoch = 0; epoch < 5; ++epoch) {
    stream.advance_epoch();
    for (std::size_t k = 0; k < 3; ++k)
      for (std::size_t idx : stream.epoch_indices(k))
        EXPECT_TRUE(owned[k].count(idx)) << "client " << k << " idx " << idx;
  }
}

TEST(OnlineStream, SizesVaryAcrossEpochs) {
  Dataset d = make_synthetic(fmnist_like_spec(800, 31));
  Rng rng(31);
  Partition p = partition_iid(d, 2, rng);
  OnlineDataStream stream(p, {});
  std::set<std::size_t> sizes;
  for (int epoch = 0; epoch < 30; ++epoch) {
    stream.advance_epoch();
    sizes.insert(stream.epoch_size(0));
  }
  EXPECT_GT(sizes.size(), 3u);  // Poisson: not constant
}

TEST(OnlineStream, WindowDrifts) {
  Dataset d = make_synthetic(fmnist_like_spec(600, 37));
  Rng rng(37);
  Partition p = partition_iid(d, 1, rng);
  OnlineDataSpec spec;
  spec.drift_frac = 0.5;
  OnlineDataStream stream(p, spec);
  stream.advance_epoch();
  const auto first = stream.epoch_indices(0);
  bool changed = false;
  for (int epoch = 0; epoch < 10 && !changed; ++epoch) {
    stream.advance_epoch();
    changed = (stream.epoch_indices(0) != first);
  }
  EXPECT_TRUE(changed);
}

TEST(OnlineStream, PartitionBelowMinSamplesHoldsEachSampleOnce) {
  // A client with fewer samples than min_samples holds exactly its own
  // samples every epoch, none repeated.
  Partition p(2);
  p[0].assign({11, 12});
  p[1].assign({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  OnlineDataSpec spec;
  spec.min_samples = 4;
  OnlineDataStream stream(p, spec);
  for (int epoch = 0; epoch < 20; ++epoch) {
    stream.advance_epoch();
    const auto& idx = stream.epoch_indices(0);
    ASSERT_EQ(idx.size(), 2u) << "epoch " << epoch;
    EXPECT_EQ(std::set<std::size_t>(idx.begin(), idx.end()),
              (std::set<std::size_t>{11, 12}))
        << "epoch " << epoch;
  }
}

TEST(OnlineStream, EmptyPartitionYieldsNoData) {
  Dataset d = make_synthetic(fmnist_like_spec(50, 41));
  Partition p(2);
  Rng rng(41);
  p[0].assign({0, 1, 2, 3, 4, 5, 6, 7});
  // p[1] stays empty.
  OnlineDataStream stream(p, {});
  stream.advance_epoch();
  EXPECT_GT(stream.epoch_size(0), 0u);
  EXPECT_EQ(stream.epoch_size(1), 0u);
}

}  // namespace
}  // namespace fedl::data
