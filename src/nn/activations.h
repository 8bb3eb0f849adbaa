// Stateless structural layers: ReLU and Flatten.
#pragma once

#include "nn/layer.h"

namespace fedl::nn {

class Relu : public Layer {
 public:
  Tensor forward(Tensor input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  // A fresh layer: the mask is a train cache (clone() contract).
  LayerPtr clone() const override { return std::make_unique<Relu>(); }
  std::string name() const override { return "relu"; }
  std::size_t scratch_bytes() const override { return mask_.owned_bytes(); }

 private:
  Tensor mask_;  // 1 where input > 0
};

// Collapses [N, C, H, W] (or any rank) into [N, rest].
class Flatten : public Layer {
 public:
  Tensor forward(Tensor input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  LayerPtr clone() const override { return std::make_unique<Flatten>(*this); }
  std::string name() const override { return "flatten"; }

 private:
  Shape in_shape_;
};

}  // namespace fedl::nn
