#include "data/partition.h"

#include <algorithm>
#include <set>

#include "common/rng.h"

namespace fedl::data {

Partition partition_iid(const Dataset& ds, std::size_t num_clients, Rng& rng) {
  FEDL_CHECK_GT(num_clients, 0u);
  std::vector<std::size_t> idx(ds.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);
  Partition p(num_clients);
  for (std::size_t i = 0; i < idx.size(); ++i)
    p[i % num_clients].push_back(idx[i]);
  return p;
}

Partition partition_noniid_principal(const Dataset& ds,
                                     std::size_t num_clients,
                                     std::size_t principal_classes,
                                     double principal_frac, Rng& rng) {
  FEDL_CHECK_GT(num_clients, 0u);
  FEDL_CHECK_GT(principal_classes, 0u);
  FEDL_CHECK_LE(principal_classes, ds.num_classes());
  FEDL_CHECK(principal_frac >= 0.0 && principal_frac <= 1.0);

  // Pools of shuffled per-class indices we consume from the front.
  std::vector<std::vector<std::size_t>> by_class(ds.num_classes());
  for (std::size_t c = 0; c < ds.num_classes(); ++c) {
    by_class[c] = ds.indices_of_class(c);
    rng.shuffle(by_class[c]);
  }
  std::vector<std::size_t> cursor(ds.num_classes(), 0);

  const std::size_t per_client = ds.size() / num_clients;
  Partition p(num_clients);
  for (std::size_t k = 0; k < num_clients; ++k) {
    const std::size_t target_principal =
        static_cast<std::size_t>(principal_frac * static_cast<double>(per_client));
    // Principal classes assigned round-robin so every class is principal for
    // roughly the same number of clients.
    for (std::size_t s = 0; s < per_client; ++s) {
      std::size_t cls;
      if (s < target_principal) {
        cls = (k * principal_classes + s % principal_classes) %
              ds.num_classes();
      } else {
        cls = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(ds.num_classes()) - 1));
      }
      // If the preferred class pool is drained, fall back to any class with
      // remaining samples.
      std::size_t tries = 0;
      while (cursor[cls] >= by_class[cls].size() &&
             tries < ds.num_classes()) {
        cls = (cls + 1) % ds.num_classes();
        ++tries;
      }
      if (cursor[cls] >= by_class[cls].size()) break;  // pool exhausted
      p[k].push_back(by_class[cls][cursor[cls]++]);
    }
  }
  return p;
}

std::size_t partition_total(const Partition& p) {
  std::size_t n = 0;
  for (const auto& c : p) n += c.size();
  return n;
}

bool partition_disjoint(const Partition& p) {
  std::set<std::size_t> seen;
  for (const auto& client : p)
    for (std::size_t i : client)
      if (!seen.insert(i).second) return false;
  return true;
}

std::vector<std::vector<double>> label_distribution(const Dataset& ds,
                                                    const Partition& p) {
  std::vector<std::vector<double>> out(p.size(),
                                       std::vector<double>(ds.num_classes(), 0.0));
  for (std::size_t k = 0; k < p.size(); ++k) {
    for (std::size_t i : p[k]) out[k][ds.labels()[i]] += 1.0;
    const double total = static_cast<double>(p[k].size());
    if (total > 0)
      for (auto& v : out[k]) v /= total;
  }
  return out;
}

}  // namespace fedl::data
