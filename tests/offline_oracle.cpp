#include "offline_oracle.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/error.h"

namespace fedl::core {

ExactSelection exact_per_epoch_optimum(const sim::EpochContext& ctx,
                                       double cost_cap, std::size_t n_min) {
  const std::size_t k = ctx.available.size();
  ExactSelection best;
  if (k == 0) return best;
  FEDL_CHECK_LE(k, 20u) << "exact enumeration is 2^|E_t|; instance too large";

  const std::size_t need = std::min<std::size_t>(n_min, k);
  best.objective = std::numeric_limits<double>::infinity();

  for (std::uint32_t mask = 1; mask < (1u << k); ++mask) {
    const std::size_t count = static_cast<std::size_t>(__builtin_popcount(mask));
    if (count < need) continue;
    double cost = 0.0;
    double objective = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (!(mask & (1u << i))) continue;
      cost += ctx.available[i].cost;
      objective += ctx.available[i].tau_loc + ctx.available[i].tau_cm_est;
    }
    if (cost > cost_cap) continue;
    if (objective < best.objective) {
      best.objective = objective;
      best.cost = cost;
      best.feasible = true;
      best.ids.clear();
      for (std::size_t i = 0; i < k; ++i)
        if (mask & (1u << i)) best.ids.push_back(ctx.available[i].id);
    }
  }
  if (!best.feasible) {
    best.objective = 0.0;
    best.ids.clear();
  }
  return best;
}

}  // namespace fedl::core
