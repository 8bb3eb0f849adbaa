// Softmax cross-entropy with optional L2 regularization.
//
// The paper assumes each client's loss F_{t,k} is L-Lipschitz-smooth and
// γ-strongly convex; the L2 term (γ/2)‖w‖² supplies the strong convexity for
// the convergence-accuracy estimates used by constraint (3c).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace fedl::nn {

struct LossResult {
  double loss = 0.0;      // mean cross-entropy over the batch (+ L2 if added by Model)
  Tensor grad_logits;     // [N, C] gradient w.r.t. logits (already /N)
  std::size_t correct = 0;  // top-1 correct predictions
};

// logits: [N, C]; labels: N class ids in [0, C).
LossResult softmax_cross_entropy(const Tensor& logits,
                                 const std::vector<std::uint8_t>& labels);

// Loss only (no gradient): the mean of accumulate_cross_entropy over one
// batch.
double softmax_cross_entropy_value(const Tensor& logits,
                                   const std::vector<std::uint8_t>& labels,
                                   std::size_t* correct_out = nullptr);

// Subtracts each row's log-likelihood from *total and counts its top-1 hit
// into *correct, one row at a time in row order. Model::evaluate carries one
// (total, correct) pair across its batch slices, so a sliced pass sums in
// exactly the order of one whole-batch call.
void accumulate_cross_entropy(const Tensor& logits,
                              std::span<const std::uint8_t> labels,
                              double* total, std::size_t* correct);

}  // namespace fedl::nn
