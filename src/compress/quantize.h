// Stochastic uniform quantization of model updates (QSGD-style).
//
// The uplink payload s enters the paper's latency model as a constant;
// compressing d_{t,k} shrinks s (and hence τ^cm) at the cost of quantization
// noise in the aggregate. Stochastic rounding keeps the estimator unbiased:
// E[dequantize(quantize(x))] = x, so the FL convergence machinery still
// applies in expectation. Used by the A9 compression ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"

namespace fedl::compress {

struct QuantizedVec {
  float scale = 0.0f;        // max |x| (dequantize multiplies by scale)
  std::uint8_t bits = 8;     // quantization width per element
  std::vector<std::int32_t> levels;  // signed level index per element

  std::size_t size() const { return levels.size(); }
};

// Quantizes x to `bits`-wide signed levels with stochastic rounding.
// bits must be in [2, 16].
QuantizedVec quantize(const ParamVec& x, std::uint8_t bits, Rng& rng);

// Reconstructs the (unbiased) estimate of the original vector.
ParamVec dequantize(const QuantizedVec& q);

// Mean squared reconstruction error (diagnostics / tests).
double quantization_mse(const ParamVec& x, const QuantizedVec& q);

}  // namespace fedl::compress
