// Unit tests for the tensor substrate: Shape/Tensor semantics, BLAS-1 ops,
// blocked GEMM vs. the naive reference, and the im2col/col2im adjoint pair.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "parallel/scheduler.h"
#include "tensor/gemm.h"
#include "tensor/gemm_workspace.h"
#include "tensor/im2col.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace fedl {
namespace {

TEST(Shape, RankAndNumel) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.numel(), 24u);
  EXPECT_EQ(s[0], 2u);
  EXPECT_EQ(s.dim_or_1(3), 1u);
}

TEST(Shape, EqualityIgnoresTrailingOnes) {
  EXPECT_TRUE((Shape{4, 5} == Shape{4, 5, 1, 1}));
  EXPECT_TRUE((Shape{4} != Shape{4, 2}));
}

TEST(Shape, StrFormat) {
  EXPECT_EQ((Shape{2, 3}).str(), "[2x3]");
}

TEST(Tensor, ConstructFillZeroed) {
  Tensor t(Shape{3, 3});
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
  t.fill(2.5f);
  for (std::size_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, TwoDAccessorRowMajor) {
  Tensor t(Shape{2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t[1 * 3 + 2], 7.0f);
  EXPECT_THROW(t.at(2, 0), CheckError);
}

TEST(Tensor, FourDAccessorNchw) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesDataRejectsBadNumel) {
  Tensor t(Shape{2, 6});
  t.at(0, 3) = 5.0f;
  t.reshape(Shape{3, 4});
  EXPECT_EQ(t.at(0, 3), 5.0f);
  EXPECT_THROW(t.reshape(Shape{5, 5}), CheckError);
}

TEST(Tensor, HeNormalStddev) {
  Rng rng(1);
  Tensor t = Tensor::he_normal(Shape{200, 200}, 200, rng);
  double sq = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i)
    sq += static_cast<double>(t[i]) * t[i];
  const double stddev = std::sqrt(sq / t.numel());
  EXPECT_NEAR(stddev, std::sqrt(2.0 / 200.0), 0.005);
}

TEST(Tensor, HeNormalMatchesSerialDraws) {
  // The sliced parallel fill must equal one serial rng.normal(0, stddev)
  // loop byte for byte at every budget, from a fresh stream and from one
  // holding a cached normal, and leave the stream where that loop does.
  constexpr std::size_t kSlice = Tensor::kHeNormalSlice;
  const std::size_t fan_in = 25;
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  Scheduler& sched = Scheduler::instance();
  for (const std::size_t budget : {1, 4}) {
    sched.configure(budget, 1);
    for (const std::size_t numel : {std::size_t{1}, kSlice - 1, kSlice,
                                    kSlice + 1, 2 * kSlice + 1,
                                    std::size_t{490 * 154}})
      for (const bool cached : {false, true}) {
        const std::string what = "budget=" + std::to_string(budget) +
                                 " numel=" + std::to_string(numel) +
                                 " cached=" + std::to_string(cached);
        Rng got_rng(11);
        Rng want_rng(11);
        if (cached) {
          got_rng.normal();
          want_rng.normal();
        }
        const Tensor got = Tensor::he_normal(Shape{numel}, fan_in, got_rng);
        std::vector<float> want(numel);
        for (float& v : want)
          v = static_cast<float>(want_rng.normal(0.0, stddev));
        ASSERT_EQ(got.numel(), numel) << what;
        EXPECT_EQ(std::memcmp(got.data(), want.data(), numel * sizeof(float)),
                  0)
            << what;
        EXPECT_EQ(got_rng.normal(), want_rng.normal()) << what;
        EXPECT_EQ(got_rng(), want_rng()) << what;
      }
  }
  sched.configure(0, 1);
}

TEST(Tensor, Norms) {
  Tensor t(Shape{2});
  t[0] = 3.0f;
  t[1] = 4.0f;
  EXPECT_NEAR(t.norm(), 5.0, 1e-12);
  EXPECT_NEAR(t.squared_norm(), 25.0, 1e-12);
}

// --- ops ---------------------------------------------------------------------

TEST(Ops, AxpyTensor) {
  Tensor x = Tensor::full(Shape{4}, 2.0f);
  Tensor y = Tensor::full(Shape{4}, 1.0f);
  axpy(3.0f, x, y);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(y[i], 7.0f);
}

TEST(Ops, AddSubDot) {
  Tensor a = Tensor::full(Shape{3}, 2.0f);
  Tensor b = Tensor::full(Shape{3}, 5.0f);
  EXPECT_EQ(add(a, b)[0], 7.0f);
  EXPECT_EQ(sub(b, a)[2], 3.0f);
  EXPECT_NEAR(tdot(a, b), 30.0, 1e-12);
}

TEST(Ops, ReluInplace) {
  Tensor t(Shape{4});
  t[0] = -1.0f;
  t[1] = 2.0f;
  t[2] = 0.0f;
  t[3] = -0.5f;
  relu_inplace(t);
  EXPECT_EQ(t[0], 0.0f);
  EXPECT_EQ(t[1], 2.0f);
  EXPECT_EQ(t[3], 0.0f);
}

TEST(Ops, ClipNorm) {
  ParamVec v = {3.0f, 4.0f};
  clip_norm(v, 10.0);  // within: unchanged
  EXPECT_EQ(v[0], 3.0f);
  clip_norm(v, 2.5);
  EXPECT_NEAR(vnorm(v), 2.5, 1e-6);
  EXPECT_NEAR(v[0] / v[1], 0.75, 1e-6);  // direction preserved
}

TEST(Ops, SoftmaxRowsSumToOneAndOrderPreserved) {
  Tensor logits(Shape{2, 3});
  logits.at(0, 0) = 1.0f;
  logits.at(0, 1) = 2.0f;
  logits.at(0, 2) = 3.0f;
  logits.at(1, 0) = 1000.0f;  // stability check
  logits.at(1, 1) = 1000.0f;
  logits.at(1, 2) = 999.0f;
  Tensor probs;
  softmax_rows(logits, probs);
  for (std::size_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (std::size_t c = 0; c < 3; ++c) sum += probs.at(r, c);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(probs.at(0, 2), probs.at(0, 1));
  EXPECT_GT(probs.at(0, 1), probs.at(0, 0));
  EXPECT_NEAR(probs.at(1, 0), probs.at(1, 1), 1e-6f);
}

TEST(Ops, ArgmaxRows) {
  Tensor m(Shape{2, 4});
  m.at(0, 2) = 5.0f;
  m.at(1, 0) = 1.0f;
  const auto idx = argmax_rows(m);
  EXPECT_EQ(idx[0], 2u);
  EXPECT_EQ(idx[1], 0u);
}

TEST(Ops, VecHelpers) {
  ParamVec a = {1.0f, 2.0f};
  ParamVec b = {3.0f, 5.0f};
  EXPECT_NEAR(vdot(a, b), 13.0, 1e-12);
  EXPECT_EQ(vadd(a, b)[1], 7.0f);
  EXPECT_EQ(vsub(b, a)[0], 2.0f);
  vscale(2.0f, a);
  EXPECT_EQ(a[1], 4.0f);
}

// --- gemm ---------------------------------------------------------------------

struct GemmCase {
  std::size_t m, n, k;
  bool ta, tb;
  float alpha, beta;
};

// Prints a case as MxNxK, the transposes and the scalars, e.g.
// "65x300x257_nt_a1_b1"; ctest names each case after it. gtest's default
// printer dumps the struct's bytes, padding included, which change from
// build to build.
void PrintTo(const GemmCase& c, std::ostream* os) {
  *os << c.m << 'x' << c.n << 'x' << c.k << '_' << (c.ta ? 't' : 'n')
      << (c.tb ? 't' : 'n') << "_a" << c.alpha << "_b" << c.beta;
}

class GemmVsNaive : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmVsNaive, MatchesReference) {
  const GemmCase c = GetParam();
  Rng rng(c.m * 131 + c.n * 17 + c.k + (c.ta ? 1000 : 0) + (c.tb ? 2000 : 0));
  std::vector<float> a(c.m * c.k), b(c.k * c.n), c_blocked(c.m * c.n),
      c_naive(c.m * c.n);
  for (auto& v : a) v = static_cast<float>(rng.normal());
  for (auto& v : b) v = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < c_blocked.size(); ++i)
    c_blocked[i] = c_naive[i] = static_cast<float>(rng.normal());

  gemm(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), b.data(), c.beta,
       c_blocked.data());
  gemm_naive(c.ta, c.tb, c.m, c.n, c.k, c.alpha, a.data(), b.data(), c.beta,
             c_naive.data());
  for (std::size_t i = 0; i < c_blocked.size(); ++i)
    EXPECT_NEAR(c_blocked[i], c_naive[i],
                1e-3f * (std::abs(c_naive[i]) + 1.0f))
        << "i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmVsNaive,
    ::testing::Values(
        GemmCase{1, 1, 1, false, false, 1.0f, 0.0f},
        GemmCase{4, 5, 6, false, false, 1.0f, 0.0f},
        GemmCase{4, 5, 6, true, false, 1.0f, 0.0f},
        GemmCase{4, 5, 6, false, true, 1.0f, 0.0f},
        GemmCase{4, 5, 6, true, true, 1.0f, 0.0f},
        GemmCase{7, 3, 9, false, false, 2.0f, 0.5f},
        GemmCase{70, 90, 80, false, false, 1.0f, 0.0f},
        GemmCase{65, 300, 257, false, true, 1.0f, 1.0f},
        GemmCase{128, 64, 300, true, false, -1.5f, 0.25f},
        GemmCase{1, 512, 300, false, false, 1.0f, 0.0f},
        GemmCase{300, 1, 70, false, false, 1.0f, 0.0f}));

TEST(Gemm, ZeroKScalesC) {
  std::vector<float> c = {2.0f, 4.0f};
  gemm(false, false, 1, 2, 0, 1.0f, nullptr, nullptr, 0.5f, c.data());
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[1], 2.0f);
}

TEST(Gemm, TensorWrapperShapeChecks) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{4, 5});  // inner mismatch
  Tensor c;
  EXPECT_THROW(gemm(false, false, 1.0f, a, b, 0.0f, c), CheckError);
}

TEST(Gemm, TensorWrapperComputes) {
  Tensor a = Tensor::full(Shape{2, 3}, 1.0f);
  Tensor b = Tensor::full(Shape{3, 4}, 2.0f);
  Tensor c;
  gemm(false, false, 1.0f, a, b, 0.0f, c);
  ASSERT_TRUE((c.shape() == Shape{2, 4}));
  for (std::size_t i = 0; i < c.numel(); ++i) EXPECT_EQ(c[i], 6.0f);
}

// --- im2col ---------------------------------------------------------------------

TEST(Im2col, IdentityKernelNoPad) {
  // 1x1 kernel, stride 1: cols equal the image.
  Conv2dGeometry g{2, 3, 4, 1, 1, 1, 0};
  std::vector<float> img(2 * 3 * 4);
  for (std::size_t i = 0; i < img.size(); ++i)
    img[i] = static_cast<float>(i);
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(g, img.data(), cols.data());
  for (std::size_t i = 0; i < img.size(); ++i) EXPECT_EQ(cols[i], img[i]);
}

TEST(Im2col, PaddingProducesZeros) {
  Conv2dGeometry g{1, 2, 2, 3, 3, 1, 1};
  std::vector<float> img = {1, 2, 3, 4};
  std::vector<float> cols(g.col_rows() * g.col_cols());
  im2col(g, img.data(), cols.data());
  // First column row (kh=0,kw=0) at output (0,0) reads input (-1,-1) = 0.
  EXPECT_EQ(cols[0], 0.0f);
  // Center kernel tap (kh=1,kw=1) at output (0,0) reads input (0,0) = 1.
  const std::size_t center_row = 1 * 3 + 1;
  EXPECT_EQ(cols[center_row * g.col_cols() + 0], 1.0f);
}

// <im2col(x), y> == <x, col2im(y)> for random x, y — the defining adjoint
// property the conv backward pass relies on. Parametrized over geometries
// that exercise stride > 1, pad > 0, non-square images, and asymmetric
// kernels (the default conv shapes only cover stride 1 / "same" padding).
struct AdjointCase {
  Conv2dGeometry g;
};

// Prints a case as channels, image, kernel, stride and pad, e.g.
// "c3_h7w6_k3x3_s2p1"; ctest names each case after it.
void PrintTo(const AdjointCase& c, std::ostream* os) {
  const Conv2dGeometry& g = c.g;
  *os << 'c' << g.in_channels << "_h" << g.in_h << 'w' << g.in_w << "_k"
      << g.kernel_h << 'x' << g.kernel_w << "_s" << g.stride << 'p' << g.pad;
}

class Im2colAdjoint : public ::testing::TestWithParam<AdjointCase> {};

TEST_P(Im2colAdjoint, HoldsForGeometry) {
  const Conv2dGeometry g = GetParam().g;
  ASSERT_GT(g.out_h(), 0u);
  ASSERT_GT(g.out_w(), 0u);
  Rng rng(9 + g.stride * 31 + g.pad * 7 + g.kernel_h);
  std::vector<float> x(g.in_channels * g.in_h * g.in_w),
      y(g.col_rows() * g.col_cols());
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());

  std::vector<float> cols(y.size());
  im2col(g, x.data(), cols.data());
  double lhs = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i)
    lhs += static_cast<double>(cols[i]) * y[i];

  std::vector<float> back(x.size(), 0.0f);
  col2im(g, y.data(), back.data());
  double rhs = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    rhs += static_cast<double>(x[i]) * back[i];

  EXPECT_NEAR(lhs, rhs, 1e-3 * (std::abs(lhs) + 1.0));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(
        AdjointCase{{3, 7, 6, 3, 3, 2, 1}},   // stride 2, pad 1
        AdjointCase{{1, 9, 9, 3, 3, 3, 0}},   // stride 3, no pad
        AdjointCase{{2, 8, 5, 3, 3, 2, 2}},   // pad 2, non-square image
        AdjointCase{{4, 6, 6, 5, 5, 1, 2}},   // big kernel, "same"-ish
        AdjointCase{{2, 10, 7, 1, 1, 2, 0}},  // 1x1 kernel, stride 2
        AdjointCase{{1, 5, 5, 5, 5, 1, 0}},   // kernel == image
        AdjointCase{{2, 7, 7, 3, 1, 2, 1}},   // asymmetric 3x1 kernel
        AdjointCase{{3, 4, 4, 2, 2, 2, 1}})); // even kernel, stride 2, pad

TEST(Im2col, StridedLdMatchesPackedAndStaysAdjoint) {
  // The conv pipeline writes each sample's columns into a slice of a wide
  // [col_rows, B*col_cols] sample-block buffer via the `ld` parameter. The
  // strided write must produce exactly the packed columns, and the strided
  // col2im must remain its adjoint.
  Rng rng(21);
  Conv2dGeometry g{2, 6, 5, 3, 3, 2, 1};
  const std::size_t colr = g.col_rows();
  const std::size_t colc = g.col_cols();
  const std::size_t ld = 3 * colc + 4;  // wide buffer, misaligned slice
  const std::size_t offset = colc + 2;

  std::vector<float> x(2 * 6 * 5);
  for (auto& v : x) v = static_cast<float>(rng.normal());

  std::vector<float> packed(colr * colc);
  im2col(g, x.data(), packed.data());
  std::vector<float> wide(colr * ld, -7.0f);
  im2col(g, x.data(), wide.data() + offset, ld);
  for (std::size_t r = 0; r < colr; ++r)
    for (std::size_t c = 0; c < colc; ++c)
      ASSERT_EQ(wide[r * ld + offset + c], packed[r * colc + c])
          << "r=" << r << " c=" << c;
  // Slots outside the written slice are untouched.
  ASSERT_EQ(wide[0], -7.0f);
  ASSERT_EQ(wide[offset + colc], -7.0f);

  // Adjoint through the strided view: seed the wide buffer with zeros
  // outside the slice so col2im(strided) == col2im(packed slice).
  std::vector<float> y(colr * colc);
  for (auto& v : y) v = static_cast<float>(rng.normal());
  std::vector<float> ywide(colr * ld, 0.0f);
  for (std::size_t r = 0; r < colr; ++r)
    for (std::size_t c = 0; c < colc; ++c)
      ywide[r * ld + offset + c] = y[r * colc + c];

  std::vector<float> back_packed(x.size(), 0.0f), back_strided(x.size(), 0.0f);
  col2im(g, y.data(), back_packed.data());
  col2im(g, ywide.data() + offset, back_strided.data(), ld);
  for (std::size_t i = 0; i < x.size(); ++i)
    ASSERT_EQ(back_strided[i], back_packed[i]) << "i=" << i;
}

// The per-element lowering im2col/col2im replaced: a bounds check on every
// element. The run-based routines must produce the same bytes.
void im2col_per_element(const Conv2dGeometry& g, const float* image,
                        float* cols, std::size_t ld) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row)
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            const bool inside = iy >= 0 &&
                                iy < static_cast<std::ptrdiff_t>(g.in_h) &&
                                ix >= 0 &&
                                ix < static_cast<std::ptrdiff_t>(g.in_w);
            cols[row * ld + y * ow + x] =
                inside ? image[(c * g.in_h + static_cast<std::size_t>(iy)) *
                                   g.in_w +
                               static_cast<std::size_t>(ix)]
                       : 0.0f;
          }
        }
}

void col2im_per_element(const Conv2dGeometry& g, const float* cols,
                        float* image, std::size_t ld) {
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c)
    for (std::size_t kh = 0; kh < g.kernel_h; ++kh)
      for (std::size_t kw = 0; kw < g.kernel_w; ++kw, ++row)
        for (std::size_t y = 0; y < oh; ++y) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(y * g.stride + kh) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          for (std::size_t x = 0; x < ow; ++x) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(x * g.stride + kw) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            image[(c * g.in_h + static_cast<std::size_t>(iy)) * g.in_w +
                  static_cast<std::size_t>(ix)] += cols[row * ld + y * ow + x];
          }
        }
}

TEST(Im2col, MatchesPerElementLoopsOnEveryGeometry) {
  // C 1-3, H/W 1-9, K 1-5, stride 1-3, pad 0-3, each at a leading
  // dimension wider than col_cols: strides > 1, pads of half the kernel and
  // more, kernels as wide as the padded image, runs that are empty.
  Rng rng(33);
  std::size_t geometries = 0;
  for (std::size_t c = 1; c <= 3; ++c)
    for (std::size_t h = 1; h <= 9; ++h)
      for (std::size_t w = 1; w <= 9; ++w)
        for (std::size_t k = 1; k <= 5; ++k)
          for (std::size_t stride = 1; stride <= 3; ++stride)
            for (std::size_t pad = 0; pad <= 3; ++pad) {
              if (h + 2 * pad < k || w + 2 * pad < k) continue;
              const Conv2dGeometry g{c, h, w, k, k, stride, pad};
              const std::size_t ld = g.col_cols() + 3;
              const std::size_t cols_len = g.col_rows() * ld;
              std::vector<float> image(c * h * w), cols(cols_len);
              for (auto& v : image) v = static_cast<float>(rng.normal());
              for (auto& v : cols) v = static_cast<float>(rng.normal());
              std::vector<float> want_cols(cols_len, -7.0f),
                  got_cols(cols_len, -7.0f);
              im2col_per_element(g, image.data(), want_cols.data(), ld);
              im2col(g, image.data(), got_cols.data(), ld);
              ASSERT_EQ(std::memcmp(want_cols.data(), got_cols.data(),
                                    cols_len * sizeof(float)),
                        0)
                  << ::testing::PrintToString(AdjointCase{g});
              std::vector<float> want_image(image), got_image(image);
              col2im_per_element(g, cols.data(), want_image.data(), ld);
              col2im(g, cols.data(), got_image.data(), ld);
              ASSERT_EQ(std::memcmp(want_image.data(), got_image.data(),
                                    image.size() * sizeof(float)),
                        0)
                  << ::testing::PrintToString(AdjointCase{g});
              ++geometries;
            }
  EXPECT_EQ(geometries, 12789u);
}

TEST(Im2col, OutputGeometry) {
  Conv2dGeometry g{1, 28, 28, 5, 5, 1, 2};
  EXPECT_EQ(g.out_h(), 28u);
  EXPECT_EQ(g.out_w(), 28u);
  Conv2dGeometry g2{1, 28, 28, 2, 2, 2, 0};
  EXPECT_EQ(g2.out_h(), 14u);
}

TEST(Workspace, EnsureGrowsToExactlyTheRequest) {
  // One buffer serving conv1 (156,800 floats) and then conv2 (196,000) of
  // the width-0.15 FMNIST CNN ends at the larger size, not at a geometric
  // growth step, and keeps the contents it had.
  Workspace ws;
  ws.ensure(156800)[0] = 3.0f;
  EXPECT_EQ(ws.capacity(), 156800u);
  EXPECT_EQ(ws.ensure(196000)[0], 3.0f);
  EXPECT_EQ(ws.capacity(), 196000u);
  ws.ensure(1000);  // never shrinks
  EXPECT_EQ(ws.capacity(), 196000u);
}

}  // namespace
}  // namespace fedl
