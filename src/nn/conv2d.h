// 2-D convolution over NCHW batches via whole-batch im2col + one GEMM.
#pragma once

#include "nn/layer.h"
#include "tensor/gemm_workspace.h"
#include "tensor/im2col.h"

namespace fedl {
class Rng;
}

namespace fedl::nn {

// Forward lowers the entire batch into one column buffer of shape
// [col_rows, N*col_cols] and runs a single GEMM per invocation (bias fused
// into the write-back), instead of one small GEMM per sample. Train mode
// keeps that column buffer as the backward cache — the input batch itself
// is never copied. Backward is three batched stages: a deterministic
// blocked weight-gradient reduction (fixed-size sample blocks reduced in
// block order, so results are identical at any thread count), one GEMM for
// the column gradients, and per-sample col2im. backward_params() stops
// after the first stage, so a first layer never runs the other two or grows
// their workspace. All scratch lives in layer-owned Workspaces that are
// reused across iterations and deliberately not propagated to clones.
class Conv2d : public Layer {
 public:
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
  std::size_t scratch_bytes() const override {
    return (cols_.capacity() + scratch_cols_.capacity() + out_cols_.capacity() +
            dout_.capacity() + dcols_.capacity() + dw_partials_.capacity()) *
           sizeof(float);
  }

  std::size_t out_channels() const { return out_channels_; }
  std::size_t out_h() const { return geom_.out_h(); }
  std::size_t out_w() const { return geom_.out_w(); }

 private:
  Conv2dGeometry geom_;
  std::size_t out_channels_;
  Tensor weight_;       // [C_out, C_in*KH*KW]
  Tensor bias_;         // [C_out]
  Tensor grad_weight_;
  Tensor grad_bias_;

  // Batch size of the last train-mode forward; 0 until one happens. The
  // backward cache is cols_ (the im2col of that batch), not the input.
  std::size_t cached_n_ = 0;
  Workspace cols_;         // [col_rows, N*col_cols] train-mode column cache
  Workspace scratch_cols_;  // eval-mode columns (never aliases the cache)
  Workspace out_cols_;  // [C_out, N*col_cols] channel-major GEMM output
  Workspace dout_;      // [C_out, N*col_cols] channel-major grad_output,
                        // filled by backward_params, read by backward
  Workspace dcols_;     // [col_rows, N*col_cols] column gradients
  Workspace dw_partials_;  // [num_blocks, C_out*col_rows] dW reduction
};

}  // namespace fedl::nn
