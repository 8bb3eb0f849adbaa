#include "nn/dense.h"

#include "common/rng.h"
#include "tensor/gemm.h"

namespace fedl::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_(Tensor::he_normal(Shape{out_features, in_features}, in_features,
                                rng)),
      bias_(Shape{out_features}),
      grad_weight_(Shape{out_features, in_features}),
      grad_bias_(Shape{out_features}) {}

Dense::Dense(const Dense& other)
    : in_(other.in_),
      out_(other.out_),
      weight_(other.weight_),
      bias_(other.bias_),
      grad_weight_(other.grad_weight_),
      grad_bias_(other.grad_bias_) {}

Tensor Dense::forward(Tensor input, bool train) {
  FEDL_CHECK_EQ(input.shape().rank(), 2u);
  FEDL_CHECK_EQ(input.shape()[1], in_);
  const std::size_t n = input.shape()[0];
  Tensor out(Shape{n, out_});
  // out = input * W^T + b, bias fused into the GEMM write-back (one value
  // per output column).
  gemm_bias(false, true, n, out_, in_, 1.0f, input.data(), weight_.data(),
            0.0f, out.data(), BiasMode::kPerCol, bias_.data());
  // The activation cache takes ownership of the batch instead of copying it.
  if (train) cached_input_ = std::move(input);
  return out;
}

void Dense::backward_params(const Tensor& grad_output) {
  FEDL_CHECK(!cached_input_.empty()) << "backward before train-mode forward";
  const std::size_t n = grad_output.shape()[0];
  FEDL_CHECK_EQ(grad_output.shape()[1], out_);
  // dW += dY^T * X ; db += column sums of dY
  gemm(true, false, 1.0f, grad_output, cached_input_, 1.0f, grad_weight_);
  for (std::size_t r = 0; r < n; ++r) {
    const float* row = grad_output.data() + r * out_;
    for (std::size_t c = 0; c < out_; ++c) grad_bias_[c] += row[c];
  }
}

Tensor Dense::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  // dX = dY * W
  Tensor grad_input(Shape{grad_output.shape()[0], in_});
  gemm(false, false, 1.0f, grad_output, weight_, 0.0f, grad_input);
  return grad_input;
}

}  // namespace fedl::nn
