// Fully connected layer: y = x W^T + b, x is [N, in], W is [out, in].
#pragma once

#include "nn/layer.h"

namespace fedl {
class Rng;
}

namespace fedl::nn {

class Dense : public Layer {
 public:
  Dense(std::size_t in_features, std::size_t out_features, Rng& rng);

  // Copies parameters/gradients only; the cached input starts empty in the
  // copy (clone() contract, as for Conv2d).
  Dense(const Dense& other);
  Dense& operator=(const Dense&) = delete;

  Tensor forward(Tensor input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }
  LayerPtr clone() const override { return std::make_unique<Dense>(*this); }
  std::string name() const override { return "dense"; }
  std::size_t scratch_bytes() const override {
    return cached_input_.owned_bytes();
  }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

 private:
  std::size_t in_;
  std::size_t out_;
  Tensor weight_;       // [out, in]
  Tensor bias_;         // [out]
  Tensor grad_weight_;  // [out, in]
  Tensor grad_bias_;    // [out]
  Tensor cached_input_;  // [N, in] (train mode; moved in, not copied)
};

}  // namespace fedl::nn
