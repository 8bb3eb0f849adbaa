// Small numeric helpers shared across modules.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace fedl {

inline double clamp(double v, double lo, double hi) {
  return std::max(lo, std::min(hi, v));
}

// [x]+ = max(x, 0), the positive-part operator used throughout the paper's
// fit definitions and the dual update (9).
inline double positive_part(double x) { return x > 0.0 ? x : 0.0; }

// Decibel <-> linear power conversions for the wireless model.
inline double db_to_linear(double db) { return std::pow(10.0, db / 10.0); }
inline double dbm_to_watts(double dbm) {
  return std::pow(10.0, (dbm - 30.0) / 10.0);
}

// ||[v]+|| — the norm of the positive part, the paper's fit aggregation.
inline double positive_part_norm(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    const double p = positive_part(x);
    s += p * p;
  }
  return std::sqrt(s);
}

inline double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) s += a[i] * b[i];
  return s;
}

}  // namespace fedl
