#include "nn/loss.h"

#include <cmath>

#include "tensor/ops.h"

namespace fedl::nn {
namespace {

constexpr double kLogFloor = 1e-12;  // guards log(0) on saturated softmax

}  // namespace

LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<std::uint8_t>& labels) {
  FEDL_CHECK_EQ(logits.shape().rank(), 2u);
  const std::size_t n = logits.shape()[0];
  const std::size_t c = logits.shape()[1];
  FEDL_CHECK_EQ(labels.size(), n);

  LossResult res;
  Tensor probs;
  softmax_rows(logits, probs);
  res.grad_logits = probs;  // dL/dlogits = (p - onehot)/N

  double total = 0.0;
  float* g = res.grad_logits.data();
  const float* p = probs.data();
  const float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t y = labels[r];
    FEDL_CHECK_LT(y, c);
    total -= std::log(std::max<double>(p[r * c + y], kLogFloor));
    g[r * c + y] -= 1.0f;
    // top-1 check
    std::size_t best = 0;
    for (std::size_t j = 1; j < c; ++j)
      if (p[r * c + j] > p[r * c + best]) best = j;
    if (best == y) ++res.correct;
  }
  for (std::size_t i = 0; i < res.grad_logits.numel(); ++i) g[i] *= inv_n;
  res.loss = total / static_cast<double>(n);
  return res;
}

double softmax_cross_entropy_value(const Tensor& logits,
                                   const std::vector<std::uint8_t>& labels,
                                   std::size_t* correct_out) {
  double total = 0.0;
  std::size_t correct = 0;
  accumulate_cross_entropy(logits, labels, &total, &correct);
  if (correct_out) *correct_out = correct;
  return total / static_cast<double>(labels.size());
}

void accumulate_cross_entropy(const Tensor& logits,
                              std::span<const std::uint8_t> labels,
                              double* total, std::size_t* correct) {
  FEDL_CHECK_EQ(logits.shape().rank(), 2u);
  const std::size_t n = logits.shape()[0];
  const std::size_t c = logits.shape()[1];
  FEDL_CHECK_EQ(labels.size(), n);
  Tensor probs;
  softmax_rows(logits, probs);
  const float* p = probs.data();
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t y = labels[r];
    FEDL_CHECK_LT(y, c);
    *total -= std::log(std::max<double>(p[r * c + y], kLogFloor));
    std::size_t best = 0;
    for (std::size_t j = 1; j < c; ++j)
      if (p[r * c + j] > p[r * c + best]) best = j;
    if (best == y) ++*correct;
  }
}

}  // namespace fedl::nn
