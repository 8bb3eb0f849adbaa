// Projected proximal-gradient solver for the modified descent step (8):
//
//   min_{Φ ∈ S}  ∇f_t(Φ_t)·(Φ − Φ_t) + μ^T h_t(Φ) + ‖Φ − Φ_t‖² / (2β)
//
// The paper solves this with the interior-point filter line-search method
// (IPOPT [26]); here we use projected gradient descent with Armijo
// backtracking (substitution 3 in DESIGN.md). The proximal term makes the
// objective 1/β-strongly convex, so PGD converges linearly to the unique
// minimizer; tests/solver_test.cpp verifies optimality against brute force.
#pragma once

#include <functional>
#include <vector>

#include "solver/projection.h"

namespace fedl::solver {

// Objective callback: returns the value at x and, when grad != nullptr,
// writes the gradient (same dimension as x).
using Objective =
    std::function<double(const std::vector<double>& x, std::vector<double>* grad)>;

struct ProxSolverResult {
  std::vector<double> x;
  double objective = 0.0;
  std::size_t iterations = 0;
  bool converged = false;
};

// Minimizes `objective` over `set` starting from x0 (projected first if
// infeasible) in at most 120 projected-gradient steps. The objective should
// already include the proximal term.
ProxSolverResult minimize_projected(const DecisionSet& set,
                                    std::vector<double> x0,
                                    const Objective& objective);

}  // namespace fedl::solver
