#include "solver/projection.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "common/math_util.h"
#include "obs/profile.h"

namespace fedl::solver {
namespace {

// The t ≥ 0 at which h(t) = Σ_k a_k·clamp(z_k − t·a_k, 0, 1) falls to b, or
// 0 when h(0) ≤ b. h is non-increasing and affine between the breakpoints
// z_k/a_k and (z_k − 1)/a_k, so the segment that ends at the first
// breakpoint with h ≤ b holds the root exactly. When rounding leaves h a hair
// above b even at the last breakpoint (z + (1 − z) can round below 1), that
// breakpoint is the root.
double multiplier(const std::vector<double>& z, const std::vector<double>& a,
                  double b, std::vector<double>& knots) {
  const auto h = [&](double t) {
    double s = 0.0;
    for (std::size_t k = 0; k < z.size(); ++k)
      s += a[k] * clamp(z[k] - t * a[k], 0.0, 1.0);
    return s;
  };
  if (h(0.0) <= b) return 0.0;
  knots.assign(1, 0.0);
  for (std::size_t k = 0; k < z.size(); ++k)
    for (const double t : {z[k] / a[k], (z[k] - 1.0) / a[k]})
      if (t > 0.0) knots.push_back(t);
  std::sort(knots.begin(), knots.end());
  const auto it = std::partition_point(knots.begin(), knots.end(),
                                       [&](double t) { return h(t) > b; });
  if (it == knots.end()) return knots.back();
  const double t0 = it[-1], t1 = *it, h0 = h(t0), h1 = h(t1);
  return t0 + (t1 - t0) * ((h0 - b) / (h0 - h1));
}

}  // namespace

void DecisionSet::project(std::vector<double>& x) const {
  FEDL_PROFILE_SCOPE("solver.project");
  const std::size_t w = cost.size();
  FEDL_CHECK_EQ(x.size(), w + 1);
  FEDL_CHECK_LE(floor, static_cast<double>(w)) << "empty decision set";
  x[w] = clamp(x[w], 1.0, rho_max);
  const std::vector<double> y(x.begin(), x.begin() + w);
  const std::vector<double> minus_ones(w, -1.0);  // the floor's coefficients
  std::vector<double> z(w), knots;

  // x̃ = clamp(y − λc + ν) into x; returns Σx̃ − floor.
  const auto place = [&](double lambda, double nu) {
    double s = 0.0;
    for (std::size_t k = 0; k < w; ++k)
      s += x[k] = clamp(y[k] - lambda * cost[k] + nu, 0.0, 1.0);
    return s - floor;
  };
  // The floor's multiplier at a given λ.
  const auto nu_at = [&](double lambda) {
    for (std::size_t k = 0; k < w; ++k) z[k] = y[k] - lambda * cost[k];
    return multiplier(z, minus_ones, -floor, knots);
  };
  // Σx̃(λ(ν), ν) − floor with λ(ν) the budget's multiplier at ν: it is
  // non-decreasing in ν. Places that point in x.
  const auto excess = [&](double nu) {
    for (std::size_t k = 0; k < w; ++k) z[k] = y[k] + nu;
    return place(multiplier(z, cost, cap, knots), nu);
  };

  if (excess(0.0) >= 0.0) return;  // at most the budget binds
  double lo = nu_at(0.0);  // 0 when the box projection meets the floor
  place(0.0, lo);
  if (dot(cost, x) <= cap) return;  // only the floor binds

  // Both bind. The set is empty unless the floor's cheapest candidates fit
  // under the cap.
  std::vector<double> sorted = cost;
  std::sort(sorted.begin(), sorted.end());
  double spend = 0.0, gap = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < w; ++k) {
    spend += sorted[k] * clamp(floor - static_cast<double>(k), 0.0, 1.0);
    if (k > 0 && sorted[k] > sorted[k - 1])
      gap = std::min(gap, sorted[k] - sorted[k - 1]);
  }
  FEDL_CHECK_LE(spend, cap) << "empty decision set";

  // Some solution has λ ≤ Λ = (1 + max y − min y)/gap, gap the smallest
  // difference of two costs: a larger λ orders x̃ by cost alone. The floor's
  // multiplier at Λ then has λ(ν) ≤ Λ and Σx̃ ≥ floor, so it bounds ν.
  const auto [y_min, y_max] = std::minmax_element(y.begin(), y.end());
  const double bound = nu_at((1.0 + *y_max - *y_min) / gap);
  double f_lo = excess(lo);
  if (f_lo >= 0.0) return;
  // Bracket ν by doubling a step from lo, up to the bound. Rounding can leave
  // a set that is a single face a hair short even at the bound; that point is
  // then the projection.
  double hi = lo, f_hi = f_lo;
  for (double step = 1.0; f_hi < 0.0 && hi < bound; step *= 2.0) {
    lo = hi;
    f_lo = f_hi;
    hi = std::min(lo + step, bound);
    f_hi = excess(hi);
  }
  // Illinois: halve the stale end's value whenever the same end moves twice
  // running. Bisect instead when two steps kept more than half the bracket,
  // as they do where rounding noise flattens the residual. Stop on a zero
  // residual or a bracket one ulp wide.
  double two_back = std::numeric_limits<double>::infinity(),
         one_back = two_back;  // the bracket's widths before the last steps
  for (int side = 0; f_hi > 0.0;) {
    double nu = lo + (hi - lo) * (f_lo / (f_lo - f_hi));
    if (!(nu > lo && nu < hi) || hi - lo > 0.5 * two_back)
      nu = lo + 0.5 * (hi - lo);
    if (!(nu > lo && nu < hi)) break;
    two_back = one_back;
    one_back = hi - lo;
    const double f = excess(nu);
    if (f < 0.0) {
      lo = nu;
      f_lo = f;
      if (side < 0) f_hi *= 0.5;
      side = -1;
    } else {
      hi = nu;
      f_hi = f;
      if (side > 0) f_lo *= 0.5;
      side = 1;
    }
  }
  excess(hi);
}

}  // namespace fedl::solver
