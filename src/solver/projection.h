// Euclidean projections onto the feasible region of the one-shot problem
// P_{3,t}: a box (relaxed selection fractions and ρ) intersected with the
// budget halfspace (5a) and the minimum-participation halfspace (5b).
//
// The intersection is handled by dual coordinate ascent on the projection
// QP's KKT system:
//   x(λ) = clamp(y − Σ_s λ_s a_s),  λ_s ≥ 0,  λ_s·(a_s·x − b_s) = 0,
// cyclically re-solving each λ_s by monotone bisection. The dual is concave
// and smooth, so cyclic ascent converges to the exact projection — unlike
// plain Dykstra over box/halfspace pairs, which stalls on polyhedral
// corners (observed experimentally). With no halfspace it is the box clamp.
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

// Euclidean projection of x onto the intersection. Returns the projected
// point; sets *converged (if non-null) to whether that point lies in the
// set: within 1e-6 once a sweep moves no λ_s by 1e-12, within 1e-7 when
// the 200 sweeps run out first. An empty intersection shows up as
// non-convergence.
std::vector<double> project_intersection(const FeasibleSet& set,
                                         std::vector<double> x,
                                         bool* converged = nullptr);

}  // namespace fedl::solver
