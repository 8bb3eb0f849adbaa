#include "nn/conv2d.h"

#include <cstring>

#include "common/rng.h"
#include "parallel/scheduler.h"
#include "tensor/gemm.h"

namespace fedl::nn {
namespace {

// Sample-block width of the weight-gradient reduction. Each block of up to
// kDwBlockSamples samples produces one dW partial; partials are summed in
// block order. Block boundaries depend only on the batch size, never on the
// thread count, so the reduction is bit-identical at any parallelism.
constexpr std::size_t kDwBlockSamples = 8;

}  // namespace

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

Tensor Conv2d::forward(Tensor input, bool train) {
  FEDL_CHECK_EQ(input.shape().rank(), 4u);
  FEDL_CHECK_EQ(input.shape()[1], geom_.in_channels);
  FEDL_CHECK_EQ(input.shape()[2], geom_.in_h);
  FEDL_CHECK_EQ(input.shape()[3], geom_.in_w);
  const std::size_t n = input.shape()[0];
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  const std::size_t colr = geom_.col_rows();
  const std::size_t colc = geom_.col_cols();
  const std::size_t ncols = n * colc;
  const std::size_t image_elems = geom_.in_channels * geom_.in_h * geom_.in_w;

  // Lower the whole batch into one [colr, n*colc] column buffer: sample s
  // owns the column slice [s*colc, (s+1)*colc). Train mode keeps this
  // buffer as the backward cache (the input itself is not retained). Eval
  // mode uses separate scratch so an eval forward between a train forward
  // and its backward cannot clobber the cache.
  Workspace& colws = train ? cols_ : scratch_cols_;
  float* cols = colws.ensure(colr * ncols);
  leased_parallel_for(0, n, [&](std::size_t s) {
    im2col(geom_, input.data() + s * image_elems, cols + s * colc, ncols);
  });

  // One GEMM for the whole batch, bias fused into the write-back:
  // [C_out, colr] x [colr, n*colc] -> [C_out, n*colc], channel-major.
  float* oc = out_cols_.ensure(out_channels_ * ncols);
  gemm_bias(false, false, out_channels_, ncols, colr, 1.0f, weight_.data(),
            cols, 0.0f, oc, BiasMode::kPerRow, bias_.data());

  // Scatter channel-major rows back to NCHW: out[s, c, :] = oc[c, s-slice].
  Tensor out(Shape{n, out_channels_, oh, ow});
  float* dst = out.data();
  leased_parallel_for(0, n, [&](std::size_t s) {
    for (std::size_t c = 0; c < out_channels_; ++c)
      std::memcpy(dst + (s * out_channels_ + c) * colc,
                  oc + c * ncols + s * colc, colc * sizeof(float));
  });
  if (train) cached_n_ = n;
  return out;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  FEDL_CHECK_GT(cached_n_, 0u) << "backward before train-mode forward";
  const std::size_t n = cached_n_;
  const std::size_t oh = geom_.out_h();
  const std::size_t ow = geom_.out_w();
  FEDL_CHECK((grad_output.shape() == Shape{n, out_channels_, oh, ow}));

  const std::size_t colr = geom_.col_rows();
  const std::size_t colc = geom_.col_cols();
  const std::size_t ncols = n * colc;
  const float* cols = cols_.data();

  // Gather grad_output into the channel-major layout matching cols.
  float* dout = dout_.ensure(out_channels_ * ncols);
  const float* gsrc = grad_output.data();
  leased_parallel_for(0, n, [&](std::size_t s) {
    for (std::size_t c = 0; c < out_channels_; ++c)
      std::memcpy(dout + c * ncols + s * colc,
                  gsrc + (s * out_channels_ + c) * colc,
                  colc * sizeof(float));
  });

  // dW += dOut * cols^T, reduced over fixed-size sample blocks: each block
  // is one [C_out, blk*colc] x [blk*colc, colr] GEMM into its own partial,
  // partials are then summed in block order on the calling thread.
  const std::size_t num_blocks = (n + kDwBlockSamples - 1) / kDwBlockSamples;
  const std::size_t wsize = out_channels_ * colr;
  if (num_blocks == 1) {
    gemm(false, true, out_channels_, colr, ncols, 1.0f, dout, cols, 1.0f,
         grad_weight_.data());
  } else {
    float* partials = dw_partials_.ensure(num_blocks * wsize);
    leased_parallel_for(0, num_blocks, [&](std::size_t b) {
      const std::size_t s0 = b * kDwBlockSamples;
      const std::size_t s1 = std::min(n, s0 + kDwBlockSamples);
      const std::size_t kblk = (s1 - s0) * colc;
      gemm_bias(false, true, out_channels_, colr, kblk, 1.0f,
                dout + s0 * colc, ncols, cols + s0 * colc, ncols, 0.0f,
                partials + b * wsize, colr, BiasMode::kNone, nullptr);
    });
    float* gw = grad_weight_.data();
    for (std::size_t b = 0; b < num_blocks; ++b) {
      const float* part = partials + b * wsize;
      for (std::size_t i = 0; i < wsize; ++i) gw[i] += part[i];
    }
  }

  // db: each channel's grad_output row is contiguous in dout.
  for (std::size_t c = 0; c < out_channels_; ++c) {
    const float* row = dout + c * ncols;
    double acc = 0.0;
    for (std::size_t i = 0; i < ncols; ++i) acc += row[i];
    grad_bias_[c] += static_cast<float>(acc);
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  const std::size_t n = cached_n_;
  const std::size_t colr = geom_.col_rows();
  const std::size_t colc = geom_.col_cols();
  const std::size_t ncols = n * colc;
  const std::size_t image_elems = geom_.in_channels * geom_.in_h * geom_.in_w;
  const float* dout = dout_.data();

  // dcols = W^T * dOut in one GEMM, then per-sample col2im (samples write
  // disjoint grad_input slices, so the fan-out is deterministic).
  float* dcols = dcols_.ensure(colr * ncols);
  gemm(true, false, colr, ncols, out_channels_, 1.0f, weight_.data(), dout,
       0.0f, dcols);
  Tensor grad_input(Shape{n, geom_.in_channels, geom_.in_h, geom_.in_w});
  float* gi = grad_input.data();
  leased_parallel_for(0, n, [&](std::size_t s) {
    col2im(geom_, dcols + s * colc, gi + s * image_elems, ncols);
  });
  return grad_input;
}

}  // namespace fedl::nn
