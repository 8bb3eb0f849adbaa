// Euclidean projections onto the feasible region of the one-shot problem
// P_{3,t}: a box (relaxed selection fractions and ρ) intersected with the
// budget halfspace (5a) and the minimum-participation halfspace (5b).
//
// Single-set projections are closed-form. The intersection is handled by
// dual coordinate ascent on the projection QP's KKT system:
//   x(λ) = clamp(y − Σ_s λ_s a_s),  λ_s ≥ 0,  λ_s·(a_s·x − b_s) = 0,
// cyclically re-solving each λ_s by monotone bisection. The dual is concave
// and smooth, so cyclic ascent converges to the exact projection — unlike
// plain Dykstra over box/halfspace pairs, which stalls on polyhedral
// corners (observed experimentally; see tests/solver_test.cpp).
#pragma once

#include <cstddef>
#include <vector>

namespace fedl::solver {

// A halfspace {x : a·x <= b}. Encode a >= constraint by negating a and b.
struct Halfspace {
  std::vector<double> a;
  double b = 0.0;
};

// Box + halfspace intersection description.
struct FeasibleSet {
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<Halfspace> halfspaces;

  std::size_t dim() const { return lo.size(); }
  bool contains(const std::vector<double>& x, double tol = 1e-9) const;
};

// Exact Euclidean projection onto box ∩ {a·x <= b} via the KKT system:
// P(y) = clamp(y − λa) with λ ≥ 0 found by monotone bisection.
void project_box_halfspace(const std::vector<double>& lo,
                           const std::vector<double>& hi, const Halfspace& h,
                           std::vector<double>& x);

// Euclidean projection of x onto the intersection. Returns the projected
// point; sets *converged (if non-null) to whether the sweep tolerance was
// met. An empty intersection shows up as non-convergence — callers must
// validate with FeasibleSet::contains.
std::vector<double> project_intersection(const FeasibleSet& set,
                                         std::vector<double> x,
                                         bool* converged = nullptr);

}  // namespace fedl::solver
