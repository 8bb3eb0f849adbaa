// Partitioning the sample pool across clients.
//
// IID: random equal split. Non-IID: the paper's "principal dataset" scheme —
// each client draws most samples from a small set of principal classes and
// the rest uniformly.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"

namespace fedl {
class Rng;
}

namespace fedl::data {

// Per-client index lists into the shared Dataset.
using Partition = std::vector<std::vector<std::size_t>>;

// Random equal split (±1 sample).
Partition partition_iid(const Dataset& ds, std::size_t num_clients, Rng& rng);

// Paper-style non-IID: a fraction `principal_frac` of each client's samples
// comes from `principal_classes` classes assigned round-robin; the remainder
// is drawn uniformly from all classes.
Partition partition_noniid_principal(const Dataset& ds,
                                     std::size_t num_clients,
                                     std::size_t principal_classes,
                                     double principal_frac, Rng& rng);

// Sanity checks the partition tests apply to both partitioners' output.
std::size_t partition_total(const Partition& p);
bool partition_disjoint(const Partition& p);

// Per-client label histogram, normalized to probabilities.
std::vector<std::vector<double>> label_distribution(const Dataset& ds,
                                                    const Partition& p);

}  // namespace fedl::data
