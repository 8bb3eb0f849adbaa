#include "nn/model.h"

#include <algorithm>

namespace fedl::nn {
namespace {

// `shape` with its leading (batch) dimension replaced by `rows`.
Shape with_batch(const Shape& shape, std::size_t rows) {
  switch (shape.rank()) {
    case 1:
      return Shape{rows};
    case 2:
      return Shape{rows, shape[1]};
    case 3:
      return Shape{rows, shape[1], shape[2]};
    default:
      return Shape{rows, shape[1], shape[2], shape[3]};
  }
}

}  // namespace

void Model::add(LayerPtr layer) {
  FEDL_CHECK(layer != nullptr);
  layer->share_block_scratch(block_scratch_.get());
  layers_.push_back(std::move(layer));
}

Model Model::clone() const {
  Model out(l2_reg_);
  out.layers_.reserve(layers_.size());
  for (const auto& layer : layers_) out.add(layer->clone());
  return out;
}

std::size_t Model::owned_bytes() const {
  std::size_t bytes = 0;
  for (const auto& layer : layers_) {
    auto& l = const_cast<Layer&>(*layer);
    for (Tensor* p : l.params()) bytes += p->owned_bytes();
    for (Tensor* g : l.grads()) bytes += g->owned_bytes();
    bytes += layer->scratch_bytes();
  }
  for (const BlockScratch& ws : *block_scratch_) bytes += ws.bytes();
  return bytes;
}

Tensor Model::forward(Tensor x, bool train) {
  FEDL_CHECK(!layers_.empty());
  for (auto& layer : layers_) x = layer->forward(std::move(x), train);
  return x;
}

EvalResult Model::forward_backward(const Batch& batch) {
  FEDL_CHECK_GT(batch.size(), 0u);
  zero_grad();
  Tensor logits = forward(batch.x, /*train=*/true);
  LossResult lr = softmax_cross_entropy(logits, batch.y);

  Tensor grad = std::move(lr.grad_logits);
  for (std::size_t i = layers_.size() - 1; i > 0; --i)
    grad = layers_[i]->backward(grad);
  layers_.front()->backward_params(grad);

  double loss = lr.loss;
  if (l2_reg_ > 0.0) {
    // loss += γ/2 ‖w‖², grad += γ w — applied directly in the layer buffers.
    double sq = 0.0;
    for (auto& layer : layers_) {
      auto ps = layer->params();
      auto gs = layer->grads();
      for (std::size_t i = 0; i < ps.size(); ++i) {
        sq += ps[i]->squared_norm();
        axpy(static_cast<float>(l2_reg_), *ps[i], *gs[i]);
      }
    }
    loss += 0.5 * l2_reg_ * sq;
  }
  return EvalResult{loss, static_cast<double>(lr.correct) /
                              static_cast<double>(batch.size())};
}

EvalResult Model::evaluate(const Batch& batch) {
  const std::size_t n = batch.size();
  FEDL_CHECK_GT(n, 0u);
  FEDL_CHECK_EQ(batch.x.shape()[0], n);
  const std::size_t sample_elems = batch.x.numel() / n;
  const std::span<const std::uint8_t> labels(batch.y);
  double total = 0.0;
  std::size_t correct = 0;
  for (std::size_t s0 = 0; s0 < n; s0 += kEvalSliceSamples) {
    const std::size_t rows = std::min(kEvalSliceSamples, n - s0);
    Tensor x(with_batch(batch.x.shape(), rows));
    std::copy_n(batch.x.data() + s0 * sample_elems, rows * sample_elems,
                x.data());
    accumulate_cross_entropy(forward(std::move(x), /*train=*/false),
                             labels.subspan(s0, rows), &total, &correct);
  }
  double loss = total / static_cast<double>(n);
  if (l2_reg_ > 0.0) {
    double sq = 0.0;
    for (auto& layer : layers_)
      for (Tensor* p : layer->params()) sq += p->squared_norm();
    loss += 0.5 * l2_reg_ * sq;
  }
  return EvalResult{loss, static_cast<double>(correct) /
                              static_cast<double>(n)};
}

std::size_t Model::num_params() const {
  std::size_t n = 0;
  for (const auto& layer : layers_)
    for (Tensor* p : const_cast<Layer&>(*layer).params()) n += p->numel();
  return n;
}

ParamVec Model::params_flat() const {
  ParamVec out;
  out.reserve(num_params());
  for (const auto& layer : layers_)
    for (Tensor* p : const_cast<Layer&>(*layer).params())
      out.insert(out.end(), p->data(), p->data() + p->numel());
  return out;
}

void Model::set_params_flat(std::span<const float> flat) {
  std::size_t offset = 0;
  for (auto& layer : layers_) {
    for (Tensor* p : layer->params()) {
      FEDL_CHECK_LE(offset + p->numel(), flat.size());
      std::copy(flat.begin() + offset, flat.begin() + offset + p->numel(),
                p->data());
      offset += p->numel();
    }
  }
  FEDL_CHECK_EQ(offset, flat.size()) << "flat vector size mismatch";
}

void Model::grads_flat_into(ParamVec& out) const {
  out.clear();
  out.reserve(num_params());
  for (const auto& layer : layers_)
    for (Tensor* g : const_cast<Layer&>(*layer).grads())
      out.insert(out.end(), g->data(), g->data() + g->numel());
}

void Model::zero_grad() {
  for (auto& layer : layers_) layer->zero_grad();
}

}  // namespace fedl::nn
