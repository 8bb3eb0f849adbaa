// Shared decision types for client-selection strategies.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace fedl::core {

// Integer decision for one epoch: who trains, and how many DANE iterations.
struct Decision {
  std::vector<std::size_t> selected;  // client ids
  std::size_t num_iterations = 1;     // l_t
};

// ρ = 1/(1−η) ⇒ l_t = ⌈ρ⌉ (the paper normalizes O(log 1/θ0) to 1).
inline std::size_t rho_to_iters(double rho, std::size_t max_iters) {
  if (!(rho >= 1.0)) rho = 1.0;  // also catches NaN
  const double l = std::ceil(rho - 1e-9);
  return std::min<std::size_t>(max_iters,
                               static_cast<std::size_t>(std::max(1.0, l)));
}

}  // namespace fedl::core
