// Layer interface for the sequential NN models.
//
// Layers own their parameters and gradient buffers; Model flattens them into
// the single ParamVec view that the FL machinery (DANE local solver, server
// aggregation) operates on.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/gemm_workspace.h"
#include "tensor/tensor.h"

namespace fedl::nn {

// One fan-out chunk's block-sized scratch for Conv2d's sample blocks. A
// Model owns one set per chunk and lends the sets to all of its layers
// (Layer::share_block_scratch): the layers run one at a time and every
// buffer is dead once its layer call returns, so each buffer serves every
// conv layer and ends at the largest layer's size.
struct BlockScratch {
  Workspace cols;  // [col_rows, blk*col_cols] the lowered block; backward
                   // overwrites it with the block's column gradients once
                   // the dW GEMM has read it
  Workspace out;   // [C_out, blk*col_cols] GEMM output, or the block's
                   // grad_output in the same channel-major layout
  Workspace dw;    // dW partials: one for chunk 0, one per block that a
                   // later chunk parks for the block-order sum
  std::size_t parked = 0;

  std::size_t bytes() const {
    return (cols.capacity() + out.capacity() + dw.capacity()) * sizeof(float);
  }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Forward pass; `train` toggles caching of activations for backward.
  //
  // `input` is taken by value so implementations can consume it: in-place
  // layers (ReLU, Flatten) mutate-and-return the buffer, caching layers
  // (Dense) move it into their activation cache instead of deep-copying the
  // batch every iteration. Model::forward threads one tensor through the
  // stack with std::move; callers that pass an lvalue keep their copy.
  virtual Tensor forward(Tensor input, bool train) = 0;

  // Backward pass: grad w.r.t. this layer's output -> grad w.r.t. its input.
  // Accumulates parameter gradients into the layer's grad buffers (callers
  // zero them via zero_grad() before a fresh accumulation).
  virtual Tensor backward(const Tensor& grad_output) = 0;

  // The parameter-gradient half of backward() alone, for a model's first
  // layer, whose input gradient nothing reads. Layers whose input gradient
  // costs real work (Conv2d, Dense) override it to skip that work; backward()
  // calls it, so the parameter-gradient code exists once.
  virtual void backward_params(const Tensor& grad_output) {
    backward(grad_output);
  }

  // Parameter / gradient tensors, in a stable order. Empty for stateless
  // layers.
  virtual std::vector<Tensor*> params() { return {}; }
  virtual std::vector<Tensor*> grads() { return {}; }

  // Deep copy, including parameters. Forward/backward caches need not be
  // preserved; the clone must behave identically on the next forward pass.
  virtual std::unique_ptr<Layer> clone() const = 0;

  // Bytes of per-replica scratch this layer pins beyond its parameter and
  // gradient tensors: activation caches, and block scratch of its own (a
  // layer outside a model). The block scratch a model lends its layers is
  // not counted here; Model::owned_bytes() counts it once. Feeds
  // Model::owned_bytes() and the engine's fl.replica_bytes gauge.
  virtual std::size_t scratch_bytes() const { return 0; }

  // Lends the layer its model's per-chunk block scratch (Model::add calls
  // it, so clones get their new model's sets). Layers that need none keep
  // the default, which ignores it.
  virtual void share_block_scratch(std::vector<BlockScratch>* /*sets*/) {}

  virtual std::string name() const = 0;

  void zero_grad() {
    for (Tensor* g : grads()) g->fill(0.0f);
  }
};

using LayerPtr = std::unique_ptr<Layer>;

}  // namespace fedl::nn
