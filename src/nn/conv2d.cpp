#include "nn/conv2d.h"

#include <algorithm>
#include <cstring>

#include "common/rng.h"
#include "obs/profile.h"
#include "parallel/scheduler.h"
#include "tensor/gemm.h"

namespace fedl::nn {

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               std::size_t in_h, std::size_t in_w, Rng& rng)
    : geom_{in_channels, in_h, in_w, kernel, kernel, stride, pad},
      out_channels_(out_channels),
      weight_(Tensor::he_normal(Shape{out_channels, geom_.col_rows()},
                                geom_.col_rows(), rng)),
      bias_(Shape{out_channels}),
      grad_weight_(Shape{out_channels, geom_.col_rows()}),
      grad_bias_(Shape{out_channels}) {
  FEDL_CHECK_GT(geom_.out_h(), 0u);
  FEDL_CHECK_GT(geom_.out_w(), 0u);
}

Conv2d::Conv2d(const Conv2d& other)
    : geom_(other.geom_),
      out_channels_(other.out_channels_),
      weight_(other.weight_),
      bias_(other.bias_),
      grad_weight_(other.grad_weight_),
      grad_bias_(other.grad_bias_) {}

std::size_t Conv2d::scratch_bytes() const {
  std::size_t bytes = input_.owned_bytes();
  for (const BlockScratch& ws : own_scratch_) bytes += ws.bytes();
  return bytes;
}

std::vector<BlockScratch>& Conv2d::chunk_scratch(std::size_t chunks) {
  std::vector<BlockScratch>& sets =
      shared_scratch_ != nullptr ? *shared_scratch_ : own_scratch_;
  if (sets.size() < chunks) sets.resize(chunks);
  for (BlockScratch& ws : sets) ws.parked = 0;
  return sets;
}

const float* Conv2d::lower_block(BlockScratch& ws, const float* images,
                                 std::size_t samples) const {
  // Sample s owns the column slice [s*col_cols, (s+1)*col_cols).
  const std::size_t colc = geom_.col_cols();
  const std::size_t bcols = samples * colc;
  const std::size_t image_elems = geom_.in_channels * geom_.in_h * geom_.in_w;
  float* cols = ws.cols.ensure(geom_.col_rows() * bcols);
  for (std::size_t s = 0; s < samples; ++s)
    im2col(geom_, images + s * image_elems, cols + s * colc, bcols);
  return cols;
}

Tensor Conv2d::forward(Tensor input, bool train) {
  FEDL_PROFILE_SCOPE("nn.conv2d.forward");
  FEDL_CHECK_EQ(input.shape().rank(), 4u);
  FEDL_CHECK_EQ(input.shape()[1], geom_.in_channels);
  FEDL_CHECK_EQ(input.shape()[2], geom_.in_h);
  FEDL_CHECK_EQ(input.shape()[3], geom_.in_w);
  const std::size_t n = input.shape()[0];
  const std::size_t colr = geom_.col_rows();
  const std::size_t colc = geom_.col_cols();
  const std::size_t image_elems = geom_.in_channels * geom_.in_h * geom_.in_w;
  const std::size_t num_blocks = (n + kBlockSamples - 1) / kBlockSamples;

  Tensor out(Shape{n, out_channels_, geom_.out_h(), geom_.out_w()});
  float* dst = out.data();
  const float* src = input.data();
  const Scheduler::WorkerLease lease = Scheduler::instance().lease(num_blocks);
  std::vector<BlockScratch>& chunks = chunk_scratch(lease.chunks());
  lease.run(0, num_blocks, [&](std::size_t chunk, std::size_t b) {
    BlockScratch& ws = chunks[chunk];
    const std::size_t s0 = b * kBlockSamples;
    const std::size_t bn = std::min(kBlockSamples, n - s0);
    const std::size_t bcols = bn * colc;
    const float* cols = lower_block(ws, src + s0 * image_elems, bn);
    // [C_out, colr] x [colr, bn*colc] -> [C_out, bn*colc], channel-major,
    // bias fused into the write-back.
    float* oc = ws.out.ensure(out_channels_ * bcols);
    gemm_bias(false, false, out_channels_, bcols, colr, 1.0f, weight_.data(),
              cols, 0.0f, oc, BiasMode::kPerRow, bias_.data());
    // Scatter channel-major rows back to NCHW.
    for (std::size_t s = 0; s < bn; ++s)
      for (std::size_t c = 0; c < out_channels_; ++c)
        std::memcpy(dst + ((s0 + s) * out_channels_ + c) * colc,
                    oc + c * bcols + s * colc, colc * sizeof(float));
  });
  // The backward cache takes ownership of the batch instead of copying it.
  if (train) input_ = std::move(input);
  return out;
}

void Conv2d::backward_blocks(const Tensor& grad_output, float* grad_input) {
  FEDL_PROFILE_SCOPE("nn.conv2d.backward");
  FEDL_CHECK(!input_.empty()) << "backward before train-mode forward";
  const std::size_t n = input_.shape()[0];
  FEDL_CHECK((grad_output.shape() ==
              Shape{n, out_channels_, geom_.out_h(), geom_.out_w()}));
  const std::size_t colr = geom_.col_rows();
  const std::size_t colc = geom_.col_cols();
  const std::size_t image_elems = geom_.in_channels * geom_.in_h * geom_.in_w;
  const std::size_t wsize = out_channels_ * colr;
  const std::size_t num_blocks = (n + kBlockSamples - 1) / kBlockSamples;

  float* gw = grad_weight_.data();
  const auto add_partial = [gw, wsize](const float* part) {
    for (std::size_t i = 0; i < wsize; ++i) gw[i] += part[i];
  };
  const float* gsrc = grad_output.data();
  const Scheduler::WorkerLease lease = Scheduler::instance().lease(num_blocks);
  std::vector<BlockScratch>& chunks = chunk_scratch(lease.chunks());
  lease.run(0, num_blocks, [&](std::size_t chunk, std::size_t b) {
    BlockScratch& ws = chunks[chunk];
    const std::size_t s0 = b * kBlockSamples;
    const std::size_t bn = std::min(kBlockSamples, n - s0);
    const std::size_t bcols = bn * colc;
    const float* cols = lower_block(ws, input_.data() + s0 * image_elems, bn);
    // Gather the block's grad_output into the channel-major layout of cols.
    float* dout = ws.out.ensure(out_channels_ * bcols);
    for (std::size_t s = 0; s < bn; ++s)
      for (std::size_t c = 0; c < out_channels_; ++c)
        std::memcpy(dout + c * bcols + s * colc,
                    gsrc + ((s0 + s) * out_channels_ + c) * colc,
                    colc * sizeof(float));

    // The block's dW partial: [C_out, bn*colc] x [bn*colc, colr]. Chunk 0
    // runs the leading blocks in order on the calling thread, so it adds
    // each partial at once; later chunks park theirs for the ordered sum
    // after the fan-out.
    float* part = chunk == 0 ? ws.dw.ensure(wsize)
                             : ws.dw.ensure((ws.parked + 1) * wsize) +
                                   ws.parked * wsize;
    gemm(false, true, out_channels_, colr, bcols, 1.0f, dout, cols, 0.0f,
         part);
    if (chunk == 0) {
      add_partial(part);
    } else {
      ++ws.parked;
    }
    if (grad_input == nullptr) return;

    // d(cols) = W^T * dOut reduces over C_out only. The dW GEMM above was
    // the columns' last reader, so d(cols) overwrites them (beta = 0 never
    // reads C); each sample's col2im writes its own grad_input slice.
    float* grad_cols = ws.cols.data();
    gemm(true, false, colr, bcols, out_channels_, 1.0f, weight_.data(), dout,
         0.0f, grad_cols);
    for (std::size_t s = 0; s < bn; ++s)
      col2im(geom_, grad_cols + s * colc, grad_input + (s0 + s) * image_elems,
             bcols);
  });
  // Chunks hold contiguous block ranges ordered by chunk index.
  for (std::size_t c = 1; c < chunks.size(); ++c)
    for (std::size_t j = 0; j < chunks[c].parked; ++j)
      add_partial(chunks[c].dw.data() + j * wsize);

  // db: each channel's grad_output, summed in sample order.
  for (std::size_t c = 0; c < out_channels_; ++c) {
    double acc = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const float* row = gsrc + (s * out_channels_ + c) * colc;
      for (std::size_t i = 0; i < colc; ++i) acc += row[i];
    }
    grad_bias_[c] += static_cast<float>(acc);
  }
}

void Conv2d::backward_params(const Tensor& grad_output) {
  backward_blocks(grad_output, nullptr);
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  Tensor grad_input(input_.shape());
  backward_blocks(grad_output, grad_input.data());
  return grad_input;
}

}  // namespace fedl::nn
