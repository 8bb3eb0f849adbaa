#include "tensor/ops.h"

#include <cmath>

namespace fedl {
namespace {

double vnorm(std::span<const float> v) {
  double s = 0.0;
  for (float x : v) s += static_cast<double>(x) * static_cast<double>(x);
  return std::sqrt(s);
}

void vscale(float alpha, std::span<float> v) {
  for (auto& x : v) x *= alpha;
}

}  // namespace

void axpy(float alpha, const Tensor& x, Tensor& y) {
  FEDL_CHECK(x.shape() == y.shape())
      << x.shape().str() << " vs " << y.shape().str();
  axpy(alpha, x.span(), y.span());
}

void relu_inplace(Tensor& t) {
  float* p = t.data();
  const std::size_t n = t.numel();
  for (std::size_t i = 0; i < n; ++i)
    if (p[i] < 0.0f) p[i] = 0.0f;
}

void mul_inplace(Tensor& y, const Tensor& mask) {
  FEDL_CHECK_EQ(y.numel(), mask.numel());
  float* p = y.data();
  const float* m = mask.data();
  for (std::size_t i = 0; i < y.numel(); ++i) p[i] *= m[i];
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  FEDL_CHECK_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void clip_norm(std::span<float> v, double max_norm) {
  FEDL_CHECK_GT(max_norm, 0.0);
  const double n = vnorm(v);
  if (n <= max_norm || n == 0.0) return;
  vscale(static_cast<float>(max_norm / n), v);
}

void softmax_rows(const Tensor& logits, Tensor& out) {
  FEDL_CHECK_EQ(logits.shape().rank(), 2u);
  if (out.shape() != logits.shape()) out = Tensor(logits.shape());
  const std::size_t rows = logits.shape()[0];
  const std::size_t cols = logits.shape()[1];
  const float* in = logits.data();
  float* o = out.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = in + r * cols;
    float* orow = o + r * cols;
    float m = row[0];
    for (std::size_t c = 1; c < cols; ++c) m = std::max(m, row[c]);
    float denom = 0.0f;
    for (std::size_t c = 0; c < cols; ++c) {
      orow[c] = std::exp(row[c] - m);
      denom += orow[c];
    }
    const float inv = 1.0f / denom;
    for (std::size_t c = 0; c < cols; ++c) orow[c] *= inv;
  }
}

}  // namespace fedl
