#include "data/synthetic.h"

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "obs/profile.h"
#include "parallel/scheduler.h"

namespace fedl::data {
namespace {

// Per-class prototype: sum of two sinusoidal gratings with class-dependent
// frequency/orientation plus a Gaussian blob at a class-dependent location.
// `overlap` pulls all class parameters toward a common mean, shrinking
// between-class distance.
class PrototypeBank {
 public:
  PrototypeBank(const SyntheticSpec& spec, Rng& rng) : spec_(spec) {
    protos_.reserve(spec.num_classes);
    for (std::size_t c = 0; c < spec.num_classes; ++c) {
      ClassParams p;
      const double base = static_cast<double>(c);
      p.fx = mix(0.5 + 0.45 * base, 2.5, rng);
      p.fy = mix(0.3 + 0.55 * base, 2.8, rng);
      p.phase = mix(base * 0.7, 1.5, rng);
      p.blob_x = mix(0.1 + 0.8 * (base / std::max<double>(1.0, spec.num_classes - 1)),
                     0.5, rng);
      p.blob_y = mix(0.9 - 0.8 * (base / std::max<double>(1.0, spec.num_classes - 1)),
                     0.5, rng);
      p.blob_amp = 1.2;
      protos_.push_back(render(p));
    }
  }

  const std::vector<float>& prototype(std::size_t cls) const {
    return protos_[cls];
  }

 private:
  struct ClassParams {
    double fx, fy, phase, blob_x, blob_y, blob_amp;
  };

  double mix(double class_value, double common_value, Rng& rng) const {
    const double o = spec_.prototype_overlap;
    // Tiny jitter keeps prototypes distinct even at full overlap.
    return (1.0 - o) * class_value + o * common_value +
           0.02 * rng.normal();
  }

  std::vector<float> render(const ClassParams& p) const {
    const std::size_t h = spec_.image_h;
    const std::size_t w = spec_.image_w;
    std::vector<float> img(spec_.channels * h * w);
    for (std::size_t ch = 0; ch < spec_.channels; ++ch) {
      // Channels get phase-shifted copies so color channels carry signal.
      const double chphase = p.phase + 0.9 * static_cast<double>(ch);
      for (std::size_t y = 0; y < h; ++y) {
        for (std::size_t x = 0; x < w; ++x) {
          const double u = static_cast<double>(x) / static_cast<double>(w);
          const double v = static_cast<double>(y) / static_cast<double>(h);
          double val = 0.5 * std::sin(2.0 * M_PI * (p.fx * u + p.fy * v) +
                                      chphase) +
                       0.3 * std::cos(2.0 * M_PI * (p.fy * u - p.fx * v));
          const double dx = u - p.blob_x;
          const double dy = v - p.blob_y;
          val += p.blob_amp * std::exp(-(dx * dx + dy * dy) / 0.02);
          img[(ch * h + y) * w + x] = static_cast<float>(val);
        }
      }
    }
    return img;
  }

  SyntheticSpec spec_;
  std::vector<std::vector<float>> protos_;
};

// Draws `count` samples in two passes, byte-identical to one serial loop
// over (class, pixel noise, label noise) per sample. The serial pass makes
// every draw that moves the stream, in that order, but skips each sample's
// pixel normals (Rng::skip_normals) after keeping a copy of the stream
// where they start. The parallel pass writes each image from its own copy:
// a pixel depends only on that copy and the read-only prototype bank.
Dataset generate(const SyntheticSpec& spec, const PrototypeBank& bank,
                 std::size_t count, Rng& rng) {
  FEDL_PROFILE_SCOPE("data.synthesize");
  const std::size_t elems = spec.channels * spec.image_h * spec.image_w;
  const auto max_class = static_cast<std::int64_t>(spec.num_classes) - 1;
  std::vector<std::size_t> classes(count);
  std::vector<Rng> pixel_noise;
  pixel_noise.reserve(count);
  std::vector<std::uint8_t> labels(count);
  for (std::size_t i = 0; i < count; ++i) {
    classes[i] = static_cast<std::size_t>(rng.uniform_int(0, max_class));
    pixel_noise.push_back(rng);
    rng.skip_normals(elems);
    std::uint8_t y = static_cast<std::uint8_t>(classes[i]);
    if (spec.label_noise > 0.0 && rng.bernoulli(spec.label_noise))
      y = static_cast<std::uint8_t>(rng.uniform_int(0, max_class));
    labels[i] = y;
  }

  // Every pixel is written below, so the chunks first-touch the pages.
  Tensor images = Tensor::uninitialized(
      Shape{count, spec.channels, spec.image_h, spec.image_w});
  float* dst = images.data();
  Scheduler::instance().lease(count).run(
      0, count, [&](std::size_t, std::size_t i) {
        const auto& proto = bank.prototype(classes[i]);
        Rng& noise = pixel_noise[i];
        for (std::size_t e = 0; e < elems; ++e)
          dst[i * elems + e] =
              static_cast<float>(spec.signal_scale) * proto[e] +
              static_cast<float>(noise.normal(0.0, spec.noise_stddev));
      });
  return Dataset(std::move(images), std::move(labels), spec.num_classes);
}

}  // namespace

SyntheticSpec fmnist_like_spec(std::size_t num_samples, std::uint64_t seed) {
  SyntheticSpec s;
  s.num_samples = num_samples;
  s.image_h = 28;
  s.image_w = 28;
  s.channels = 1;
  s.noise_stddev = 1.6;
  s.signal_scale = 0.45;
  s.prototype_overlap = 0.45;
  s.seed = seed;
  return s;
}

SyntheticSpec cifar_like_spec(std::size_t num_samples, std::uint64_t seed) {
  SyntheticSpec s;
  s.num_samples = num_samples;
  s.image_h = 32;
  s.image_w = 32;
  s.channels = 3;
  s.noise_stddev = 1.6;
  s.signal_scale = 0.45;
  s.prototype_overlap = 0.55;    // heavier class overlap -> harder task
  s.seed = seed;
  return s;
}

Dataset make_synthetic(const SyntheticSpec& spec) {
  FEDL_CHECK_GT(spec.num_samples, 0u);
  FEDL_CHECK_GT(spec.num_classes, 0u);
  Rng rng(spec.seed);
  PrototypeBank bank(spec, rng);
  return generate(spec, bank, spec.num_samples, rng);
}

TrainTest make_synthetic_train_test(const SyntheticSpec& spec,
                                    std::size_t test_samples) {
  FEDL_CHECK_GT(test_samples, 0u);
  Rng rng(spec.seed);
  PrototypeBank bank(spec, rng);
  TrainTest tt;
  tt.train = generate(spec, bank, spec.num_samples, rng);
  // Test noise stream continues the same RNG: independent draws, same
  // prototypes; label noise is not applied to the test set.
  SyntheticSpec clean = spec;
  clean.label_noise = 0.0;
  tt.test = generate(clean, bank, test_samples, rng);
  return tt;
}

}  // namespace fedl::data
