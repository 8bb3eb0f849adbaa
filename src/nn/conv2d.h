// 2-D convolution over NCHW batches, lowered by im2col through fixed
// sample blocks.
#pragma once

#include <vector>

#include "nn/layer.h"
#include "tensor/im2col.h"

namespace fedl {
class Rng;
}

namespace fedl::nn {

// Every pass runs over fixed blocks of kBlockSamples samples. A block's
// images are lowered into one [col_rows, blk*col_cols] column buffer and
// meet the filter in one GEMM (bias fused into the write-back). Blocks fan
// out over the chunks of one Scheduler::lease per pass, and each chunk uses
// one block-sized BlockScratch set, so no workspace grows with the
// minibatch. Inside a Model the sets are the model's, shared by all of its
// conv layers; a layer outside a model keeps a set of its own.
//
// Train mode caches the layer input (moved in, as Dense does); backward
// lowers each block again from it. Backward per block: the block's dW
// partial GEMM, then (backward() only) the column-gradient GEMM, written
// over the block's columns (dead once dW has read them), and per-sample
// col2im into the input gradient. Partials are summed in block order, db
// over grad_output in sample order, so gradients are identical at any
// thread count. backward_params() stops after dW, so a first layer never
// runs the column gradients. Scratch is reused across iterations and
// deliberately not propagated to clones.
class Conv2d : public Layer {
 public:
  // Block width: fixes every workspace's size and the dW reduction order.
  // Block boundaries depend only on the batch size, never on the grant.
  static constexpr std::size_t kBlockSamples = 8;

  // Square kernels; `pad` defaults to "same"-ish (kernel/2) when npos.
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t pad,
         std::size_t in_h, std::size_t in_w, Rng& rng);

  // Copies parameters/gradients only; backward caches and scratch start
  // empty in the copy (clone() contract: identical behavior from the next
  // forward pass on, no dragged-along high-water-mark buffers).
  Conv2d(const Conv2d& other);
  Conv2d& operator=(const Conv2d&) = delete;

  Tensor forward(Tensor input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;
  std::vector<Tensor*> params() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> grads() override { return {&grad_weight_, &grad_bias_}; }
  LayerPtr clone() const override { return std::make_unique<Conv2d>(*this); }
  std::string name() const override { return "conv2d"; }
  // The cached input, plus the layer's own block scratch when it is outside
  // a model.
  std::size_t scratch_bytes() const override;
  void share_block_scratch(std::vector<BlockScratch>* sets) override {
    shared_scratch_ = sets;
  }

  std::size_t out_channels() const { return out_channels_; }
  std::size_t out_h() const { return geom_.out_h(); }
  std::size_t out_w() const { return geom_.out_w(); }

 private:
  // At least `chunks` scratch sets, one per chunk of the block fan-out's
  // lease.
  std::vector<BlockScratch>& chunk_scratch(std::size_t chunks);
  // im2col of `samples` consecutive images into ws.cols.
  const float* lower_block(BlockScratch& ws, const float* images,
                           std::size_t samples) const;
  // Both backward entry points; grad_input == nullptr skips the column
  // gradients.
  void backward_blocks(const Tensor& grad_output, float* grad_input);

  Conv2dGeometry geom_;
  std::size_t out_channels_;
  Tensor weight_;       // [C_out, C_in*KH*KW]
  Tensor bias_;         // [C_out]
  Tensor grad_weight_;
  Tensor grad_bias_;

  Tensor input_;  // [N, C_in, H, W] train-mode cache (moved in, not copied)
  // The model's per-chunk sets (share_block_scratch), or nullptr outside a
  // model, where own_scratch_ serves instead.
  std::vector<BlockScratch>* shared_scratch_ = nullptr;
  std::vector<BlockScratch> own_scratch_;
};

}  // namespace fedl::nn
