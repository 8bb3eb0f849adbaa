#include "compress/quantize.h"

#include <cmath>

#include "common/error.h"

namespace fedl::compress {

QuantizedVec quantize(const ParamVec& x, std::uint8_t bits, Rng& rng) {
  FEDL_CHECK(bits >= 2 && bits <= 16) << "bits=" << static_cast<int>(bits);
  QuantizedVec q;
  q.bits = bits;
  q.levels.resize(x.size());

  float max_abs = 0.0f;
  for (float v : x) max_abs = std::max(max_abs, std::abs(v));
  q.scale = max_abs;
  if (max_abs == 0.0f) return q;  // all-zero vector: levels stay 0

  // Signed levels in [-L, L] with L = 2^(bits-1) − 1.
  const std::int32_t max_level = (1 << (bits - 1)) - 1;
  const double unit = static_cast<double>(max_abs) / max_level;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double exact = x[i] / unit;  // in [-L, L]
    const double floor_level = std::floor(exact);
    const double frac = exact - floor_level;
    // Stochastic rounding: round up with probability equal to the fraction,
    // making the quantizer unbiased.
    double level = floor_level + (rng.uniform() < frac ? 1.0 : 0.0);
    level = std::min<double>(std::max<double>(level, -max_level), max_level);
    q.levels[i] = static_cast<std::int32_t>(level);
  }
  return q;
}

ParamVec dequantize(const QuantizedVec& q) {
  ParamVec out(q.levels.size(), 0.0f);
  if (q.scale == 0.0f) return out;
  const std::int32_t max_level = (1 << (q.bits - 1)) - 1;
  const double unit = static_cast<double>(q.scale) / max_level;
  for (std::size_t i = 0; i < q.levels.size(); ++i)
    out[i] = static_cast<float>(q.levels[i] * unit);
  return out;
}

}  // namespace fedl::compress
