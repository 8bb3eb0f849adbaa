#include "data/online.h"

#include <algorithm>

namespace fedl::data {

OnlineDataStream::OnlineDataStream(Partition partition, OnlineDataSpec spec)
    : partition_(std::move(partition)),
      spec_(spec),
      rng_(spec.seed),
      window_start_(partition_.size(), 0),
      current_(partition_.size()) {
  FEDL_CHECK_GT(spec_.poisson_mean_frac, 0.0);
  FEDL_CHECK(spec_.drift_frac >= 0.0 && spec_.drift_frac <= 1.0);
}

void OnlineDataStream::advance_epoch() {
  for (std::size_t k = 0; k < partition_.size(); ++k) {
    const auto& part = partition_[k];
    auto& cur = current_[k];
    cur.clear();
    if (part.empty()) continue;

    const double mean =
        spec_.poisson_mean_frac * static_cast<double>(part.size());
    std::size_t count = static_cast<std::size_t>(rng_.poisson(mean));
    // At least min_samples, but never more than the partition holds: a
    // client with fewer samples reports all of them, each once.
    count = std::min(std::max(count, spec_.min_samples), part.size());

    // Slide the window start by a random fraction of its size.
    const std::size_t max_shift = std::max<std::size_t>(
        1, static_cast<std::size_t>(spec_.drift_frac * static_cast<double>(count)));
    window_start_[k] = (window_start_[k] +
                        static_cast<std::size_t>(rng_.uniform_int(
                            0, static_cast<std::int64_t>(max_shift)))) %
                       part.size();

    cur.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      cur.push_back(part[(window_start_[k] + i) % part.size()]);
  }
}

const std::vector<std::size_t>& OnlineDataStream::epoch_indices(
    std::size_t client) const {
  FEDL_CHECK_LT(client, current_.size());
  return current_[client];
}

std::size_t OnlineDataStream::epoch_size(std::size_t client) const {
  return epoch_indices(client).size();
}

}  // namespace fedl::data
