// Sequential model with a flat-parameter-vector interface.
//
// The FL machinery treats model parameters as one vector w ∈ R^P:
//  * the server broadcasts w and aggregates client deltas d ∈ R^P,
//  * the DANE solver differentiates surrogates of F_k at shifted points,
// so Model exposes params_flat()/set_params_flat()/grads_flat_into()
// alongside the usual forward/backward.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/layer.h"
#include "nn/loss.h"
#include "tensor/ops.h"

namespace fedl::nn {

using fedl::ParamVec;  // flat parameter vectors are defined in tensor/ops.h

// A minibatch: inputs plus integer class labels.
struct Batch {
  Tensor x;                         // [N, ...]
  std::vector<std::uint8_t> y;      // N labels

  std::size_t size() const { return y.size(); }
};

struct EvalResult {
  double loss = 0.0;      // mean cross-entropy + L2 term
  double accuracy = 0.0;  // top-1
};

// Model::evaluate runs its batch through the layers this many samples at a
// time, so no activation or im2col workspace grows with the evaluated batch.
// Per-sample logits do not depend on the rest of the batch (im2col, pooling
// and ReLU work per sample; the GEMM's per-element k-walk is fixed by its
// blocking), so the slice width never changes a result.
inline constexpr std::size_t kEvalSliceSamples = 32;

class Model {
 public:
  // l2_reg is the strong-convexity constant γ: loss += γ/2 ‖w‖².
  explicit Model(double l2_reg = 0.0) : l2_reg_(l2_reg) {}

  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  void add(LayerPtr layer);

  // Deep copy: independent parameter/gradient buffers with identical values
  // and fresh, empty block scratch.
  Model clone() const;

  // Bytes of backing storage this model pins: parameter/gradient tensor
  // capacity, per-layer scratch_bytes() and the shared block scratch, once.
  std::size_t owned_bytes() const;

  // Forward pass to logits. Takes the batch by value so callers that hand
  // over a temporary (evaluate's slices) are not copied again.
  Tensor forward(Tensor x, bool train);

  // Full training step bookkeeping: zeroes grads, runs forward + softmax-CE
  // + backward, leaves parameter gradients in the layers. Returns loss
  // (including the L2 term) and batch accuracy. The first layer runs
  // backward_params(): the gradient w.r.t. the batch itself is never used.
  EvalResult forward_backward(const Batch& batch);

  // Loss/accuracy without touching gradients, computed kEvalSliceSamples
  // samples at a time; identical to one whole-batch pass.
  EvalResult evaluate(const Batch& batch);

  // --- flat parameter vector view ------------------------------------------
  std::size_t num_params() const;
  ParamVec params_flat() const;
  void set_params_flat(std::span<const float> flat);
  // The flat gradient vector, written into a caller-owned vector whose
  // capacity is reused across calls (LocalOracle's per-iteration path).
  void grads_flat_into(ParamVec& out) const;
  void zero_grad();

  double l2_reg() const { return l2_reg_; }

 private:
  std::vector<LayerPtr> layers_;
  // One block-scratch set per fan-out chunk, lent to every layer by add().
  // Held on the heap so a moved Model keeps the address its layers hold.
  std::unique_ptr<std::vector<BlockScratch>> block_scratch_ =
      std::make_unique<std::vector<BlockScratch>>();
  double l2_reg_;
};

}  // namespace fedl::nn
