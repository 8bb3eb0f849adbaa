#include "core/rounding.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fedl::core {
namespace {

constexpr double kIntegralTol = 1e-12;

bool is_fractional(double v) {
  return v > kIntegralTol && v < 1.0 - kIntegralTol;
}

std::vector<int> to_bits(const std::vector<double>& x) {
  std::vector<int> out(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) out[k] = x[k] > 0.5 ? 1 : 0;
  return out;
}

}  // namespace

void rdcs_round_in_place(std::vector<double>& x, Rng& rng,
                         RdcsScratch& scratch) {
  for (double& v : x) {
    FEDL_CHECK(v >= -kIntegralTol && v <= 1.0 + kIntegralTol)
        << "fraction out of [0,1]: " << v;
    v = std::clamp(v, 0.0, 1.0);
  }

  // Active list of fractional coordinates.
  std::vector<std::size_t>& frac = scratch.frac;
  std::vector<std::size_t>& next = scratch.next;
  frac.clear();
  for (std::size_t k = 0; k < x.size(); ++k)
    if (is_fractional(x[k])) frac.push_back(k);

  // Algorithm 2's pairing step, iterated until ≤ 1 fractional coordinate
  // remains. Each step makes at least one of the pair integral, so the loop
  // terminates in at most |frac| − 1 steps.
  while (frac.size() >= 2) {
    // Randomly choose two clients i and j (Alg. 2 line 1).
    const std::size_t pi = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frac.size()) - 1));
    std::size_t pj = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(frac.size()) - 2));
    if (pj >= pi) ++pj;
    const std::size_t i = frac[pi];
    const std::size_t j = frac[pj];

    // ζ1 = min{1 − x̃_i, x̃_j}, ζ2 = min{x̃_i, 1 − x̃_j} (lines 3–4).
    const double zeta1 = std::min(1.0 - x[i], x[j]);
    const double zeta2 = std::min(x[i], 1.0 - x[j]);
    FEDL_CHECK_GT(zeta1 + zeta2, 0.0);

    // With prob ζ2/(ζ1+ζ2): x_i += ζ1, x_j −= ζ1; else x_i −= ζ2, x_j += ζ2
    // (lines 5–8). Mass moves between the pair; the sum is invariant.
    if (rng.uniform() < zeta2 / (zeta1 + zeta2)) {
      x[i] += zeta1;
      x[j] -= zeta1;
    } else {
      x[i] -= zeta2;
      x[j] += zeta2;
    }

    // Rebuild the active pair membership (at least one became integral).
    next.clear();
    for (std::size_t k : frac)
      if (is_fractional(x[k])) next.push_back(k);
    FEDL_CHECK_LT(next.size(), frac.size())
        << "RDCS pairing step failed to fix a coordinate";
    std::swap(frac, next);
  }

  // Residual coordinate (when Σ x̃ is non-integral): independent rounding of
  // the single leftover keeps E[x_k] = x̃_k.
  if (frac.size() == 1) {
    const std::size_t k = frac[0];
    x[k] = rng.uniform() < x[k] ? 1.0 : 0.0;
  }

  for (double& v : x) v = v > 0.5 ? 1.0 : 0.0;
}

void independent_round_in_place(std::vector<double>& x, Rng& rng) {
  for (double& v : x) v = rng.uniform() < std::clamp(v, 0.0, 1.0) ? 1.0 : 0.0;
}

std::vector<int> rdcs_round(const std::vector<double>& fractions, Rng& rng) {
  std::vector<double> x = fractions;
  RdcsScratch scratch;
  rdcs_round_in_place(x, rng, scratch);
  return to_bits(x);
}

std::vector<int> independent_round(const std::vector<double>& fractions,
                                   Rng& rng) {
  std::vector<double> x = fractions;
  independent_round_in_place(x, rng);
  return to_bits(x);
}

}  // namespace fedl::core
