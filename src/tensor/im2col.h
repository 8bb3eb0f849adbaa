// im2col / col2im lowering for convolution.
//
// Convolution over an NCHW image becomes a GEMM between the filter matrix
// [C_out, C_in*KH*KW] and the column matrix [C_in*KH*KW, OH*OW]; col2im is
// the adjoint used in the backward pass.
//
// Both routines take an optional leading dimension `ld` (distance in floats
// between consecutive column-matrix rows). With ld > col_cols() a sample's
// columns can be written directly into its slice of a sample-block buffer
// of shape [col_rows, B*col_cols] — one GEMM per block of B samples
// instead of one tiny GEMM per sample (see nn/conv2d.cpp).
//
// The padding bounds are worked out once per (channel, kernel tap): each
// output row of a column-matrix row copies its in-bounds run of the input
// row (one memcpy at stride 1) and zero-fills the padding either side.
// col2im adds over the same runs in the same order, so both give the same
// bytes as a per-element loop with a bounds check on every element.
#pragma once

#include <cstddef>

#include "tensor/tensor.h"

namespace fedl {

struct Conv2dGeometry {
  std::size_t in_channels;
  std::size_t in_h;
  std::size_t in_w;
  std::size_t kernel_h;
  std::size_t kernel_w;
  std::size_t stride;
  std::size_t pad;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel_h) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel_w) / stride + 1; }
  std::size_t col_rows() const { return in_channels * kernel_h * kernel_w; }
  std::size_t col_cols() const { return out_h() * out_w(); }
};

// image: one sample, [C, H, W] contiguous; cols: [col_rows, col_cols] slab
// with row stride `ld` (0 means tightly packed, ld = col_cols()).
void im2col(const Conv2dGeometry& g, const float* image, float* cols,
            std::size_t ld = 0);

// Adjoint: accumulate columns (row stride `ld`, 0 = col_cols()) back into
// the (pre-zeroed) image gradient.
void col2im(const Conv2dGeometry& g, const float* cols, float* image,
            std::size_t ld = 0);

}  // namespace fedl
