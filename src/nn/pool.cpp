#include "nn/pool.h"

#include <limits>

namespace fedl::nn {

MaxPool2d::MaxPool2d(std::size_t window, std::size_t stride)
    : window_(window), stride_(stride) {
  FEDL_CHECK_GT(window, 0u);
  FEDL_CHECK_GT(stride, 0u);
}

Tensor MaxPool2d::forward(Tensor input, bool train) {
  FEDL_CHECK_EQ(input.shape().rank(), 4u);
  const std::size_t n = input.shape()[0];
  const std::size_t c = input.shape()[1];
  const std::size_t h = input.shape()[2];
  const std::size_t w = input.shape()[3];
  FEDL_CHECK_GE(h, window_);
  FEDL_CHECK_GE(w, window_);
  const std::size_t oh = (h - window_) / stride_ + 1;
  const std::size_t ow = (w - window_) / stride_ + 1;

  Tensor out(Shape{n, c, oh, ow});
  if (train) argmax_.assign(out.numel(), 0);

  const float* in = input.data();
  float* o = out.data();
  std::size_t oi = 0;
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t ch = 0; ch < c; ++ch) {
      const float* plane = in + (s * c + ch) * h * w;
      const std::size_t plane_base = (s * c + ch) * h * w;
      for (std::size_t y = 0; y < oh; ++y) {
        for (std::size_t x = 0; x < ow; ++x, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              const std::size_t iy = y * stride_ + dy;
              const std::size_t ix = x * stride_ + dx;
              const float v = plane[iy * w + ix];
              if (v > best) {
                best = v;
                best_idx = plane_base + iy * w + ix;
              }
            }
          }
          o[oi] = best;
          if (train) argmax_[oi] = best_idx;
        }
      }
    }
  }
  // Backward state is train-only: an eval forward between a train forward
  // and its backward (any batch size) must leave it alone.
  if (train) {
    in_shape_ = input.shape();
    out_shape_ = out.shape();
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  FEDL_CHECK(!argmax_.empty()) << "backward before train-mode forward";
  FEDL_CHECK(grad_output.shape() == out_shape_);
  Tensor grad_input(in_shape_);
  const float* g = grad_output.data();
  float* gi = grad_input.data();
  for (std::size_t i = 0; i < grad_output.numel(); ++i)
    gi[argmax_[i]] += g[i];
  return grad_input;
}

}  // namespace fedl::nn
