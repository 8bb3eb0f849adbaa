// Exact offline solver for the one-shot selection problem, by exhaustive
// enumeration — exponential in |E_t|, usable only for small instances.
//
// Purpose: validate the greedy per-epoch optimum (regret.h) that the regret
// analysis relies on, and provide the true offline reference for P_1 on toy
// scenarios. The greedy routine is provably optimal when the budget cap is
// slack (pick the n fastest); under a tight cap the problem becomes a
// knapsack variant and greedy is only a heuristic — the enumerator measures
// that gap in oracle_report_test.cpp, its only user.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/environment.h"

namespace fedl::core {

struct ExactSelection {
  std::vector<std::size_t> ids;  // chosen client ids (empty if infeasible)
  double objective = 0.0;        // Σ_{k∈S} (τ^loc + τ^cm) at ρ = 1
  double cost = 0.0;
  bool feasible = false;
};

// Enumerates every subset of ctx.available with |S| ≥ min(n_min, |E_t|) and
// cost ≤ cost_cap, returning the minimizer of f_t at ρ = 1.
// FEDL_CHECKs |E_t| ≤ 20 to bound the enumeration.
ExactSelection exact_per_epoch_optimum(const sim::EpochContext& ctx,
                                       double cost_cap, std::size_t n_min);

}  // namespace fedl::core
