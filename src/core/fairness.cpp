#include "core/fairness.h"

#include "common/error.h"

namespace fedl::core {

double participation_rate(const ClientStatePool& pool, std::uint32_t slot) {
  const std::uint32_t offered = pool.offered(slot);
  if (offered == 0) return 0.0;
  return static_cast<double>(pool.estimates(slot).selected) /
         static_cast<double>(offered);
}

std::vector<std::size_t> selection_counts(const ClientStatePool& pool,
                                          std::size_t num_clients) {
  std::vector<std::size_t> counts(num_clients);
  for (std::size_t id = 0; id < num_clients; ++id)
    counts[id] = pool.estimates(pool.find(id)).selected;
  return counts;
}

double jains_index(const std::vector<std::size_t>& counts) {
  FEDL_CHECK(!counts.empty());
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t c : counts) {
    const double v = static_cast<double>(c);
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;  // nobody selected: trivially even
  return sum * sum / (static_cast<double>(counts.size()) * sum_sq);
}

}  // namespace fedl::core
