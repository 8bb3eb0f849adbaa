// Euclidean projection onto the feasible set of step (8) in P_{3,t}: w
// selection fractions x̃ ∈ [0,1]^w under the paced budget (5a) c·x̃ ≤ cap
// and the participation floor (5b) Σx̃ ≥ n, and ρ ∈ [1, ρ_max].
//
// The projection is exact. By its KKT conditions x̃ = clamp(y − λc + ν, 0, 1)
// with multipliers λ, ν ≥ 0, each zero unless its constraint binds. One
// binding constraint's multiplier comes from a breakpoint search: the
// constraint's sum is monotone and affine between its ≤ 2w breakpoints
// (the continuous quadratic knapsack; Kiwiel 2008). When both bind, ν is
// the root of the non-decreasing, piecewise-linear Σx̃(λ(ν), ν) − n, found
// by bracketed regula falsi (Illinois) with λ(ν) solved exactly per trial.
#pragma once

#include <vector>

namespace fedl::solver {

// The feasible set decide() builds. Points are [x̃, ρ].
struct DecisionSet {
  std::vector<double> cost;  // c_k > 0 of the w candidates
  double cap = 0.0;          // Σ c·x̃ ≤ cap
  double floor = 0.0;        // Σ x̃ ≥ floor
  double rho_max = 1.0;      // 1 ≤ ρ ≤ rho_max

  // Replaces x by its Euclidean projection onto the set. An empty set (the
  // floor's cheapest candidates cost more than the cap) fails a FEDL_CHECK.
  void project(std::vector<double>& x) const;
};

}  // namespace fedl::solver
