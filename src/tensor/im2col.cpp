#include "tensor/im2col.h"

#include <algorithm>
#include <cstring>

namespace fedl {
namespace {

// The output positions o in [lo, hi) whose input coordinate
// o*stride + k - pad falls inside [0, in): the in-bounds run of one kernel
// tap along one axis. Positions before lo and from hi on read padding.
struct Run {
  std::size_t lo;
  std::size_t hi;
};

Run in_bounds_run(std::size_t out, std::size_t in, std::size_t k,
                  std::size_t stride, std::size_t pad) {
  const auto ceil_div = [stride](std::size_t a) {
    return (a + stride - 1) / stride;
  };
  const std::size_t hi =
      std::min(out, in + pad > k ? ceil_div(in + pad - k) : 0);
  const std::size_t lo = std::min(hi, k >= pad ? 0 : ceil_div(pad - k));
  return {lo, hi};
}

}  // namespace

void im2col(const Conv2dGeometry& g, const float* image, float* cols,
            std::size_t ld) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const Run ry = in_bounds_run(oh, g.in_h, kh, g.stride, g.pad);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const Run rx = in_bounds_run(ow, g.in_w, kw, g.stride, g.pad);
        float* out = cols + row * ld;
        if (rx.lo == rx.hi) {
          std::fill(out, out + oh * ow, 0.0f);
          continue;
        }
        std::fill(out, out + ry.lo * ow, 0.0f);
        for (std::size_t y = ry.lo; y < ry.hi; ++y) {
          float* orow = out + y * ow;
          const float* irow = plane + (y * g.stride + kh - g.pad) * g.in_w +
                              (rx.lo * g.stride + kw - g.pad);
          std::fill(orow, orow + rx.lo, 0.0f);
          if (g.stride == 1) {
            std::memcpy(orow + rx.lo, irow, (rx.hi - rx.lo) * sizeof(float));
          } else {
            for (std::size_t x = rx.lo; x < rx.hi; ++x)
              orow[x] = irow[(x - rx.lo) * g.stride];
          }
          std::fill(orow + rx.hi, orow + ow, 0.0f);
        }
        std::fill(out + ry.hi * ow, out + oh * ow, 0.0f);
      }
    }
  }
}

void col2im(const Conv2dGeometry& g, const float* cols, float* image,
            std::size_t ld) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  if (ld == 0) ld = oh * ow;
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image + c * g.in_h * g.in_w;
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh) {
      const Run ry = in_bounds_run(oh, g.in_h, kh, g.stride, g.pad);
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row) {
        const Run rx = in_bounds_run(ow, g.in_w, kw, g.stride, g.pad);
        if (rx.lo == rx.hi) continue;
        const float* in = cols + row * ld;
        for (std::size_t y = ry.lo; y < ry.hi; ++y) {
          const float* crow = in + y * ow;
          float* irow = plane + (y * g.stride + kh - g.pad) * g.in_w +
                        (rx.lo * g.stride + kw - g.pad);
          for (std::size_t x = rx.lo; x < rx.hi; ++x)
            irow[(x - rx.lo) * g.stride] += crow[x];
        }
      }
    }
  }
}

}  // namespace fedl
