// Selection fairness — the extension the paper's conclusion names as future
// work ("we will consider selection fairness to further expand the CS
// capabilities"), in the spirit of Huang et al. [11]'s long-term fairness
// quota on client participation rates.
//
// Each client's long-term participation rate (selections / epochs offered
// as a candidate) is kept in its ClientStatePool slot (sparse_state.h), so
// tracking it costs nothing per never-offered client. FedLStrategy can
// enforce a minimum rate by boosting the fractional selection of
// under-served clients before rounding — the quota enters as a pre-rounding
// adjustment, so Theorem 3's marginal preservation still applies to the
// adjusted fractions. jains_index() is the standard fairness metric
// reported by the bench.
#pragma once

#include <cstddef>
#include <vector>

#include "core/sparse_state.h"

namespace fedl::core {

struct FairnessConfig {
  bool enabled = false;
  double min_rate = 0.15;  // target long-term participation rate per client
  // Rates are meaningless for the first few epochs; hold off until then.
  std::size_t warmup_epochs = 5;
};

// Long-term participation rate: selected / offered (0 when the client has
// never been offered).
double participation_rate(const ClientLearnerState& s);

// Dense per-client selection counts for ids [0, num_clients). O(M): for
// reporting at small M (jains_index), never on the decide path.
std::vector<std::size_t> selection_counts(const ClientStatePool& pool,
                                          std::size_t num_clients);

// Jain's fairness index over per-client selection counts:
// (Σx)² / (n·Σx²) ∈ [1/n, 1]; 1 = perfectly even participation.
double jains_index(const std::vector<std::size_t>& counts);

}  // namespace fedl::core
