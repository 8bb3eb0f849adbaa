// Elementwise and BLAS-1 style operations on tensors / flat parameter
// vectors. These are the primitives the DANE local solver composes:
// w_k = w + d, d -= alpha * grad, gradient clipping.
#pragma once

#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace fedl {

// y += alpha * x (shapes must match).
void axpy(float alpha, const Tensor& x, Tensor& y);
// ReLU forward in place.
void relu_inplace(Tensor& t);
// Elementwise multiply: y *= mask (used for ReLU backward).
void mul_inplace(Tensor& y, const Tensor& mask);

// --- flat parameter-vector views -------------------------------------------
// A model's parameters live in several tensors; DANE and the aggregation
// rules treat them as one flat vector. ParamVec provides that view as an
// owned std::vector<float>.
using ParamVec = std::vector<float>;

void axpy(float alpha, std::span<const float> x, std::span<float> y);
// Clip v to max L2 norm `max_norm` (no-op when already within).
void clip_norm(std::span<float> v, double max_norm);

// Row-wise softmax of a [N, C] logits matrix, written into out ([N, C]).
void softmax_rows(const Tensor& logits, Tensor& out);

}  // namespace fedl
