// Model factories for the paper's two CNNs plus smaller reference models.
//
// Paper §6.1:
//  * FMNIST CNN: two 5x5 conv layers (32, 64 channels), 2x2 max pooling,
//    one FC layer (1024), softmax output (10).
//  * CIFAR-10 CNN: two 5x5 conv layers (64, 64 channels), 3x3 max pooling,
//    two FC layers (384, 192), softmax output (10).
//
// `width_scale` uniformly scales channel/unit counts so the full experiment
// sweeps finish on a laptop-class CPU (scale 1.0 is the exact paper model);
// DESIGN.md §5 documents this substitution.
#pragma once

#include <cstddef>
#include <memory>

#include "nn/model.h"

namespace fedl {
class Rng;
}

namespace fedl::nn {

struct ModelSpec {
  std::size_t image_h = 28;
  std::size_t image_w = 28;
  std::size_t channels = 1;
  std::size_t num_classes = 10;
  double width_scale = 1.0;
  double l2_reg = 1e-3;  // strong-convexity constant γ
};

// Paper's FMNIST CNN (28x28x1 input by default).
Model make_fmnist_cnn(const ModelSpec& spec, Rng& rng);

// Paper's CIFAR-10 CNN (32x32x3 input by default).
Model make_cifar_cnn(const ModelSpec& spec, Rng& rng);

// One-hidden-layer MLP; fast stand-in used by unit/integration tests.
Model make_mlp(std::size_t input_dim, std::size_t hidden, std::size_t classes,
               double l2_reg, Rng& rng);

// Multinomial logistic regression — convex, matching the paper's strong
// convexity assumption exactly; the tests' convex training fixture.
Model make_logistic(std::size_t input_dim, std::size_t classes, double l2_reg,
                    Rng& rng);

}  // namespace fedl::nn
