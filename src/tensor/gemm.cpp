#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"
#include "parallel/scheduler.h"
#include "tensor/simd_dispatch.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define FEDL_X86 1
#endif

namespace fedl {
namespace {

// Micro-tile shape: each micro-kernel call produces a MR x NR tile of C from
// packed A/B micro-panels. All kernels share MR = 6 (so pack_a is
// tier-independent) and differ in NR: 6x16 needs 12 accumulator registers
// + 2 B loads + 1 A broadcast = 15 of the 16 YMM registers on the AVX2
// path; 6x32 uses the same budget out of the 32 ZMM registers on AVX-512.
// The portable path uses the 6x16 shape so it shares packing, blocking
// schedule, and per-element accumulation order with AVX2 (only FMA rounding
// differs).
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
constexpr std::size_t kNrAvx512 = 32;
constexpr std::size_t kNrMax = 32;

// Cache blocks: the packed B panel (kBlockK x kBlockN = 256 KiB) targets L2,
// packed A micro-panels (kMr x kBlockK = 6 KiB each) stream through L1
// while one B panel stays resident. Multiples of kMr / kNrMax.
constexpr std::size_t kBlockN = 256;
constexpr std::size_t kBlockK = 256;

// Minimum problem size (2*m*n*k flops) before the macro loop asks the
// scheduler for extra workers: below this the lease + fan-out overhead
// (~µs) rivals the GEMM itself. 1e7 flops ≈ a 172³ product; the whole-batch
// dense GEMMs of a large model clear it, per-sample and small per-block
// conv ones do not (conv2d fans out over its sample blocks instead).
constexpr double kThreadMinFlops = 1e7;

// Packs op(A)'s [mb x kb] block into kMr-row micro-panels: panel ib holds
// kb steps of kMr consecutive rows, laid out p-major so the micro-kernel
// reads kMr unit-stride floats per k step. Rows past mb are zero-padded
// (they produce dead tile rows the write-back never reads).
void pack_a(bool trans_a, const float* a, std::size_t lda, std::size_t row0,
            std::size_t col0, std::size_t mb, std::size_t kb, float* out) {
  for (std::size_t ib = 0; ib < mb; ib += kMr) {
    const std::size_t rows = std::min(kMr, mb - ib);
    for (std::size_t p = 0; p < kb; ++p) {
      for (std::size_t r = 0; r < rows; ++r)
        out[p * kMr + r] = trans_a ? a[(col0 + p) * lda + (row0 + ib + r)]
                                   : a[(row0 + ib + r) * lda + (col0 + p)];
      for (std::size_t r = rows; r < kMr; ++r) out[p * kMr + r] = 0.0f;
    }
    out += kMr * kb;
  }
}

// Packs op(B)'s [kb x nb] block into nr-column micro-panels, p-major, with
// zero padding past nb. nr is the active kernel's register-tile width.
void pack_b(bool trans_b, const float* b, std::size_t ldb, std::size_t row0,
            std::size_t col0, std::size_t kb, std::size_t nb, std::size_t nr,
            float* out) {
  for (std::size_t jb = 0; jb < nb; jb += nr) {
    const std::size_t cols = std::min(nr, nb - jb);
    if (!trans_b && cols == nr) {
      // Fast path: contiguous nr-float rows of B.
      for (std::size_t p = 0; p < kb; ++p)
        std::memcpy(out + p * nr, b + (row0 + p) * ldb + (col0 + jb),
                    nr * sizeof(float));
    } else {
      for (std::size_t p = 0; p < kb; ++p) {
        for (std::size_t c = 0; c < cols; ++c)
          out[p * nr + c] = trans_b ? b[(col0 + jb + c) * ldb + (row0 + p)]
                                    : b[(row0 + p) * ldb + (col0 + jb + c)];
        for (std::size_t c = cols; c < nr; ++c) out[p * nr + c] = 0.0f;
      }
    }
    out += nr * kb;
  }
}

// Portable micro-kernel: tile[r][c] = sum_p apanel[p*6+r] * bpanel[p*16+c].
// Plain nested loops the compiler can unroll/vectorize at the baseline ISA;
// same p-ascending accumulation order as the AVX2 kernel.
// One tile row at a time: 16 accumulators fit the baseline SSE register
// file, so they stay register-resident across the whole k walk (a full
// 6×16 accumulator block spills and runs ~8x slower). The B panel is
// re-read once per row but is at most kBlockK*kNr floats = 16 KiB — L1.
void kernel_6x16_portable(std::size_t kb, const float* apanel,
                          const float* bpanel, float* tile) {
  for (std::size_t r = 0; r < kMr; ++r) {
    float acc[kNr] = {0.0f};
    for (std::size_t p = 0; p < kb; ++p) {
      const float av = apanel[p * kMr + r];
      const float* bp = bpanel + p * kNr;
      for (std::size_t c = 0; c < kNr; ++c) acc[c] += av * bp[c];
    }
    std::memcpy(tile + r * kNr, acc, sizeof(acc));
  }
}

#ifdef FEDL_X86
// AVX2+FMA micro-kernel. Compiled with a function-level target attribute so
// the rest of the TU (and the whole build) stays at the baseline ISA; the
// dispatcher guarantees it only runs on CPUs with AVX2 and FMA.
__attribute__((target("avx2,fma"))) void kernel_6x16_avx2(
    std::size_t kb, const float* apanel, const float* bpanel, float* tile) {
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (std::size_t p = 0; p < kb; ++p) {
    const __m256 b0 = _mm256_loadu_ps(bpanel + p * kNr);
    const __m256 b1 = _mm256_loadu_ps(bpanel + p * kNr + 8);
    const float* ap = apanel + p * kMr;
    __m256 a = _mm256_broadcast_ss(ap + 0);
    c00 = _mm256_fmadd_ps(a, b0, c00);
    c01 = _mm256_fmadd_ps(a, b1, c01);
    a = _mm256_broadcast_ss(ap + 1);
    c10 = _mm256_fmadd_ps(a, b0, c10);
    c11 = _mm256_fmadd_ps(a, b1, c11);
    a = _mm256_broadcast_ss(ap + 2);
    c20 = _mm256_fmadd_ps(a, b0, c20);
    c21 = _mm256_fmadd_ps(a, b1, c21);
    a = _mm256_broadcast_ss(ap + 3);
    c30 = _mm256_fmadd_ps(a, b0, c30);
    c31 = _mm256_fmadd_ps(a, b1, c31);
    a = _mm256_broadcast_ss(ap + 4);
    c40 = _mm256_fmadd_ps(a, b0, c40);
    c41 = _mm256_fmadd_ps(a, b1, c41);
    a = _mm256_broadcast_ss(ap + 5);
    c50 = _mm256_fmadd_ps(a, b0, c50);
    c51 = _mm256_fmadd_ps(a, b1, c51);
  }
  _mm256_storeu_ps(tile + 0 * kNr, c00);
  _mm256_storeu_ps(tile + 0 * kNr + 8, c01);
  _mm256_storeu_ps(tile + 1 * kNr, c10);
  _mm256_storeu_ps(tile + 1 * kNr + 8, c11);
  _mm256_storeu_ps(tile + 2 * kNr, c20);
  _mm256_storeu_ps(tile + 2 * kNr + 8, c21);
  _mm256_storeu_ps(tile + 3 * kNr, c30);
  _mm256_storeu_ps(tile + 3 * kNr + 8, c31);
  _mm256_storeu_ps(tile + 4 * kNr, c40);
  _mm256_storeu_ps(tile + 4 * kNr + 8, c41);
  _mm256_storeu_ps(tile + 5 * kNr, c50);
  _mm256_storeu_ps(tile + 5 * kNr + 8, c51);
}

// AVX-512F micro-kernel: 6x32 tile as 12 ZMM accumulators (2 per row) + 2 B
// loads + 1 broadcast, mirroring the AVX2 register discipline at twice the
// width. Same p-ascending accumulation order as the other kernels.
__attribute__((target("avx512f"))) void kernel_6x32_avx512(
    std::size_t kb, const float* apanel, const float* bpanel, float* tile) {
  __m512 c00 = _mm512_setzero_ps(), c01 = _mm512_setzero_ps();
  __m512 c10 = _mm512_setzero_ps(), c11 = _mm512_setzero_ps();
  __m512 c20 = _mm512_setzero_ps(), c21 = _mm512_setzero_ps();
  __m512 c30 = _mm512_setzero_ps(), c31 = _mm512_setzero_ps();
  __m512 c40 = _mm512_setzero_ps(), c41 = _mm512_setzero_ps();
  __m512 c50 = _mm512_setzero_ps(), c51 = _mm512_setzero_ps();
  for (std::size_t p = 0; p < kb; ++p) {
    const __m512 b0 = _mm512_loadu_ps(bpanel + p * kNrAvx512);
    const __m512 b1 = _mm512_loadu_ps(bpanel + p * kNrAvx512 + 16);
    const float* ap = apanel + p * kMr;
    __m512 a = _mm512_set1_ps(ap[0]);
    c00 = _mm512_fmadd_ps(a, b0, c00);
    c01 = _mm512_fmadd_ps(a, b1, c01);
    a = _mm512_set1_ps(ap[1]);
    c10 = _mm512_fmadd_ps(a, b0, c10);
    c11 = _mm512_fmadd_ps(a, b1, c11);
    a = _mm512_set1_ps(ap[2]);
    c20 = _mm512_fmadd_ps(a, b0, c20);
    c21 = _mm512_fmadd_ps(a, b1, c21);
    a = _mm512_set1_ps(ap[3]);
    c30 = _mm512_fmadd_ps(a, b0, c30);
    c31 = _mm512_fmadd_ps(a, b1, c31);
    a = _mm512_set1_ps(ap[4]);
    c40 = _mm512_fmadd_ps(a, b0, c40);
    c41 = _mm512_fmadd_ps(a, b1, c41);
    a = _mm512_set1_ps(ap[5]);
    c50 = _mm512_fmadd_ps(a, b0, c50);
    c51 = _mm512_fmadd_ps(a, b1, c51);
  }
  _mm512_storeu_ps(tile + 0 * kNrAvx512, c00);
  _mm512_storeu_ps(tile + 0 * kNrAvx512 + 16, c01);
  _mm512_storeu_ps(tile + 1 * kNrAvx512, c10);
  _mm512_storeu_ps(tile + 1 * kNrAvx512 + 16, c11);
  _mm512_storeu_ps(tile + 2 * kNrAvx512, c20);
  _mm512_storeu_ps(tile + 2 * kNrAvx512 + 16, c21);
  _mm512_storeu_ps(tile + 3 * kNrAvx512, c30);
  _mm512_storeu_ps(tile + 3 * kNrAvx512 + 16, c31);
  _mm512_storeu_ps(tile + 4 * kNrAvx512, c40);
  _mm512_storeu_ps(tile + 4 * kNrAvx512 + 16, c41);
  _mm512_storeu_ps(tile + 5 * kNrAvx512, c50);
  _mm512_storeu_ps(tile + 5 * kNrAvx512 + 16, c51);
}
#endif  // FEDL_X86

using MicroKernelFn = void (*)(std::size_t, const float*, const float*,
                               float*);

// A resolved kernel tier: the micro-kernel plus its register-tile width.
// Everything downstream (pack_b panel width, tile stride, write-back) is
// parameterized on nr so tiers can differ in width without duplicating the
// macro loop.
struct KernelDesc {
  MicroKernelFn fn;
  std::size_t nr;
};

KernelDesc select_micro_kernel() {
#ifdef FEDL_X86
  switch (active_gemm_kernel()) {
    case GemmKernel::kAvx512:
      return {kernel_6x32_avx512, kNrAvx512};
    case GemmKernel::kAvx2Fma:
      return {kernel_6x16_avx2, kNr};
    case GemmKernel::kPortable:
      break;
  }
#endif
  return {kernel_6x16_portable, kNr};
}

// Dispatch-layer telemetry: call volume and FLOP throughput, plus which
// micro-kernel tier the dispatcher resolved (0 = portable, 1 = AVX2+FMA,
// 2 = AVX-512) and how many extra workers the threaded macro loop ran with.
void note_gemm_call(std::size_t m, std::size_t n, std::size_t k) {
  static const obs::Counter calls("gemm.calls");
  static const obs::Counter flops("gemm.flops");
  static const obs::Gauge kernel_tier("gemm.kernel_tier");
  calls.add();
  flops.add(static_cast<std::uint64_t>(2) * m * n * k);
  kernel_tier.set(static_cast<double>(active_gemm_kernel()));
}

void note_gemm_threads(std::size_t extra) {
  static const obs::Counter threaded_calls("gemm.threaded_calls");
  static const obs::Counter threaded_workers("gemm.threaded_workers");
  threaded_calls.add();
  threaded_workers.add(extra);
}

// Merges one micro-tile into C: C = alpha*tile + beta_eff*C, plus the fused
// bias on the final k-panel. beta_eff == 0 must not read C (it may be
// uninitialized scratch). nr_stride is the tile's row stride (the kernel's
// register-tile width); nr <= nr_stride columns are live.
void write_back(const float* tile, std::size_t nr_stride, float* c,
                std::size_t ldc, std::size_t mr, std::size_t nr, float alpha,
                float beta_eff, BiasMode bias_mode, const float* bias,
                std::size_t row0, std::size_t col0) {
  for (std::size_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    const float* trow = tile + r * nr_stride;
    const float row_bias =
        bias_mode == BiasMode::kPerRow ? bias[row0 + r] : 0.0f;
    for (std::size_t cc = 0; cc < nr; ++cc) {
      float v = alpha * trow[cc];
      if (beta_eff != 0.0f) v += beta_eff * crow[cc];
      if (bias_mode == BiasMode::kPerRow) v += row_bias;
      if (bias_mode == BiasMode::kPerCol) v += bias[col0 + cc];
      crow[cc] = v;
    }
  }
}

}  // namespace

void gemm_naive(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
                std::size_t k, float alpha, const float* a, const float* b,
                float beta, float* c) {
  const std::size_t lda = trans_a ? m : k;
  const std::size_t ldb = trans_b ? k : n;
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        const float av = trans_a ? a[p * lda + i] : a[i * lda + p];
        const float bv = trans_b ? b[j * ldb + p] : b[p * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * n + j] =
          alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

void gemm_bias(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, std::size_t lda,
               const float* b, std::size_t ldb, float beta, float* c,
               std::size_t ldc, BiasMode bias_mode, const float* bias) {
  if (m == 0 || n == 0) return;
  FEDL_PROFILE_SCOPE("tensor.gemm");
  note_gemm_call(m, n, k);
  if (k == 0) {
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * ldc;
      const float row_bias =
          bias_mode == BiasMode::kPerRow ? bias[i] : 0.0f;
      for (std::size_t j = 0; j < n; ++j) {
        float v = beta == 0.0f ? 0.0f : beta * crow[j];
        if (bias_mode == BiasMode::kPerRow) v += row_bias;
        if (bias_mode == BiasMode::kPerCol) v += bias[j];
        crow[j] = v;
      }
    }
    return;
  }
  const KernelDesc kd = select_micro_kernel();
  const MicroKernelFn micro = kd.fn;
  const std::size_t nr_tile = kd.nr;

  // Threaded macro loop: split the m dimension into kMr-row strips and lease
  // extra workers from the shared scheduler budget for the strip loop. The
  // lease composes with enclosing fan-outs (engine per-client chunks are
  // charged against the same budget, so a saturated budget grants 0 and the
  // GEMM runs inline — no oversubscription, no deadlock: Σ granted leases
  // ≤ budget − runners − 1 ≤ pool size, so every submitted chunk gets a
  // worker). Determinism: the k loop (p0) stays on the calling thread and
  // each strip's k-accumulation order is fixed by the blocking schedule, so
  // C is bit-identical at any grant — workers only change which strip runs
  // where, and strips write disjoint C rows.
  const std::size_t n_strips = (m + kMr - 1) / kMr;
  const bool threaded = 2.0 * static_cast<double>(m) *
                            static_cast<double>(n) * static_cast<double>(k) >=
                        kThreadMinFlops;
  const Scheduler::WorkerLease lease =
      Scheduler::instance().lease(threaded ? n_strips : 1);
  const std::size_t chunks = lease.chunks();
  if (chunks > 1) note_gemm_threads(chunks - 1);

  // Packing scratch: one shared B panel (packed by the calling thread before
  // each strip fan-out) plus an A micro-panel and a C tile per lease chunk,
  // so concurrent strips never share mutable scratch.
  const std::size_t nb_cap =
      std::min(kBlockN, (n + nr_tile - 1) / nr_tile * nr_tile);
  const std::size_t kb_cap = std::min(kBlockK, k);
  std::vector<float> bpack(kb_cap * nb_cap);
  std::vector<float> apack(chunks * kMr * kb_cap);
  std::vector<float> tiles(chunks * kMr * kNrMax);

  for (std::size_t j0 = 0; j0 < n; j0 += kBlockN) {
    const std::size_t nb = std::min(kBlockN, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
      const std::size_t kb = std::min(kBlockK, k - p0);
      // First k-panel applies the caller's beta, later panels accumulate;
      // the bias joins on the last panel so it is added exactly once.
      const float beta_eff = p0 == 0 ? beta : 1.0f;
      const BiasMode panel_bias =
          p0 + kb >= k ? bias_mode : BiasMode::kNone;
      pack_b(trans_b, b, ldb, p0, j0, kb, nb, nr_tile, bpack.data());
      const auto run_strip = [&](std::size_t chunk, std::size_t s) {
        const std::size_t i0 = s * kMr;
        const std::size_t mr = std::min(kMr, m - i0);
        float* apanel = apack.data() + chunk * kMr * kb_cap;
        float* tile = tiles.data() + chunk * kMr * kNrMax;
        pack_a(trans_a, a, lda, i0, p0, mr, kb, apanel);
        for (std::size_t jb = 0; jb < nb; jb += nr_tile) {
          const float* bpanel = bpack.data() + (jb / nr_tile) * nr_tile * kb;
          const std::size_t nc = std::min(nr_tile, nb - jb);
          micro(kb, apanel, bpanel, tile);
          write_back(tile, nr_tile, c + i0 * ldc + (j0 + jb), ldc, mr, nc,
                     alpha, beta_eff, panel_bias, bias, i0, j0 + jb);
        }
      };
      lease.run(0, n_strips, run_strip);
    }
  }
}

void gemm_bias(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
               std::size_t k, float alpha, const float* a, const float* b,
               float beta, float* c, BiasMode bias_mode, const float* bias) {
  gemm_bias(trans_a, trans_b, m, n, k, alpha, a, trans_a ? m : k, b,
            trans_b ? k : n, beta, c, n, bias_mode, bias);
}

void gemm(bool trans_a, bool trans_b, std::size_t m, std::size_t n,
          std::size_t k, float alpha, const float* a, const float* b,
          float beta, float* c) {
  gemm_bias(trans_a, trans_b, m, n, k, alpha, a, b, beta, c, BiasMode::kNone,
            nullptr);
}

void gemm(bool trans_a, bool trans_b, float alpha, const Tensor& a,
          const Tensor& b, float beta, Tensor& c) {
  FEDL_CHECK_EQ(a.shape().rank(), 2u);
  FEDL_CHECK_EQ(b.shape().rank(), 2u);
  const std::size_t m = trans_a ? a.shape()[1] : a.shape()[0];
  const std::size_t ka = trans_a ? a.shape()[0] : a.shape()[1];
  const std::size_t kb = trans_b ? b.shape()[1] : b.shape()[0];
  const std::size_t n = trans_b ? b.shape()[0] : b.shape()[1];
  FEDL_CHECK_EQ(ka, kb) << "inner dims mismatch: " << a.shape().str() << " * "
                        << b.shape().str();
  if (c.shape() != Shape{m, n}) {
    FEDL_CHECK_EQ(beta, 0.0f) << "beta != 0 requires a correctly-shaped C";
    c = Tensor(Shape{m, n});
  }
  gemm(trans_a, trans_b, m, n, ka, alpha, a.data(), b.data(), beta, c.data());
}

}  // namespace fedl
