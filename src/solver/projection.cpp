#include "solver/projection.h"

#include <cmath>

#include "common/error.h"
#include "common/math_util.h"

namespace fedl::solver {

bool FeasibleSet::contains(const std::vector<double>& x, double tol) const {
  FEDL_CHECK_EQ(x.size(), dim());
  for (std::size_t i = 0; i < x.size(); ++i)
    if (x[i] < lo[i] - tol || x[i] > hi[i] + tol) return false;
  for (const auto& h : halfspaces)
    if (dot(h.a, x) > h.b + tol) return false;
  return true;
}

namespace {

// Dual coordinate-ascent sweeps of project_intersection, and the max |Δλ|
// per sweep that declares it converged.
constexpr std::size_t kMaxSweeps = 200;
constexpr double kSweepTolerance = 1e-12;

// Solves λ ≥ 0 with a·clamp(base − λa, lo, hi) = b when the constraint is
// violated at λ = 0, by bracketing + bisection (g is non-increasing in λ).
double solve_multiplier(const std::vector<double>& lo,
                        const std::vector<double>& hi, const Halfspace& h,
                        const std::vector<double>& base) {
  auto g = [&](double lambda) {
    double v = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i)
      v += h.a[i] * clamp(base[i] - lambda * h.a[i], lo[i], hi[i]);
    return v - h.b;
  };
  if (g(0.0) <= 0.0) return 0.0;
  double a_sq = 0.0;
  for (double ai : h.a) a_sq += ai * ai;
  if (a_sq == 0.0) return 0.0;  // degenerate: cannot fix by moving along a

  double lo_l = 0.0;
  double hi_l = 1.0 / a_sq;
  for (int it = 0; it < 200 && g(hi_l) > 0.0; ++it) {
    lo_l = hi_l;
    hi_l *= 2.0;
  }
  for (int it = 0; it < 100; ++it) {
    const double mid = 0.5 * (lo_l + hi_l);
    (g(mid) > 0.0 ? lo_l : hi_l) = mid;
  }
  return 0.5 * (lo_l + hi_l);
}

}  // namespace

std::vector<double> project_intersection(const FeasibleSet& set,
                                         std::vector<double> x,
                                         bool* converged) {
  FEDL_CHECK_EQ(x.size(), set.dim());
  const std::size_t n = x.size();
  const std::size_t k = set.halfspaces.size();

  // Dual coordinate ascent: x(λ) = clamp(y − Σ λ_s a_s); cyclically re-solve
  // each λ_s exactly given the others.
  const std::vector<double> y = x;
  std::vector<double> lambda(k, 0.0);
  std::vector<double> base(n);
  bool stationary = false;
  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    double max_change = 0.0;
    for (std::size_t s = 0; s < k; ++s) {
      // base = y − Σ_{t≠s} λ_t a_t
      for (std::size_t i = 0; i < n; ++i) {
        double v = y[i];
        for (std::size_t t = 0; t < k; ++t)
          if (t != s) v -= lambda[t] * set.halfspaces[t].a[i];
        base[i] = v;
      }
      const double new_lambda =
          solve_multiplier(set.lo, set.hi, set.halfspaces[s], base);
      max_change = std::max(max_change, std::abs(new_lambda - lambda[s]));
      lambda[s] = new_lambda;
    }
    if (max_change < kSweepTolerance) {
      stationary = true;
      break;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    double v = y[i];
    for (std::size_t t = 0; t < k; ++t) v -= lambda[t] * set.halfspaces[t].a[i];
    x[i] = clamp(v, set.lo[i], set.hi[i]);
  }
  // Dual coordinate ascent converges linearly but can be slow for nearly
  // parallel halfspaces; primal feasibility of the final iterate is the
  // practically meaningful convergence signal (dual stationarity only
  // sharpens the last few digits of the projection). A stationary sweep
  // needs feasibility within 1e-6, an unfinished one within 1e-7.
  if (converged) *converged = set.contains(x, stationary ? 1e-6 : 1e-7);
  return x;
}

}  // namespace fedl::solver
