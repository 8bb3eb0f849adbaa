#include "core/ucb_strategy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/math_util.h"

namespace fedl::core {
namespace {

// Reward = Δloss − kLatencyWeight·(latency / the cohort's max latency).
constexpr double kLatencyWeight = 1.0;

}  // namespace

UcbStrategy::UcbStrategy(std::size_t num_clients, UcbConfig cfg)
    : cfg_(cfg), reward_sum_(num_clients, 0.0), pulls_(num_clients, 0) {
  FEDL_CHECK_GT(num_clients, 0u);
  FEDL_CHECK_GT(cfg.base.n_select, 0u);
}

double UcbStrategy::mean_reward(std::size_t client) const {
  FEDL_CHECK_LT(client, reward_sum_.size());
  return pulls_[client] == 0
             ? 0.0
             : reward_sum_[client] / static_cast<double>(pulls_[client]);
}

std::size_t UcbStrategy::pulls(std::size_t client) const {
  FEDL_CHECK_LT(client, pulls_.size());
  return pulls_[client];
}

Decision UcbStrategy::decide(const sim::EpochContext& ctx,
                             const BudgetLedger& budget) {
  const std::size_t k = ctx.available.size();
  if (k == 0) return {};
  ++epoch_;

  // UCB index per available client; unpulled arms get +inf (forced explore).
  std::vector<double> index(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t id = ctx.available[i].id;
    if (pulls_[id] == 0) {
      index[i] = std::numeric_limits<double>::infinity();
    } else {
      index[i] = mean_reward(id) +
                 cfg_.exploration *
                     std::sqrt(2.0 * std::log(static_cast<double>(epoch_)) /
                               static_cast<double>(pulls_[id]));
    }
  }
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return index[a] > index[b];
  });

  const double cap =
      per_epoch_cap(ctx, budget, cfg_.base.n_select, cfg_.base.pacing);
  Decision dec;
  dec.num_iterations = cfg_.base.iterations;
  double cost = 0.0;
  for (std::size_t i : order) {
    if (dec.selected.size() >= cfg_.base.n_select) break;
    if (cost + ctx.available[i].cost > cap) continue;
    dec.selected.push_back(ctx.available[i].id);
    cost += ctx.available[i].cost;
  }
  std::sort(dec.selected.begin(), dec.selected.end());
  return dec;
}

void UcbStrategy::observe(const sim::EpochContext& ctx,
                          const Decision& decision,
                          const fl::EpochOutcome& outcome) {
  (void)ctx;
  // Normalize latency to [0,1] within this epoch's participants so the
  // reward mixes loss progress and speed on comparable scales.
  double max_latency = 0.0;
  for (double l : outcome.client_latency_s)
    max_latency = std::max(max_latency, l);
  for (std::size_t i = 0; i < decision.selected.size(); ++i) {
    const std::size_t id = decision.selected[i];
    if (id >= reward_sum_.size()) continue;
    const double gain = i < outcome.client_loss_reduction.size()
                            ? positive_part(outcome.client_loss_reduction[i])
                            : 0.0;
    const double rel_latency =
        (max_latency > 0.0 && i < outcome.client_latency_s.size())
            ? outcome.client_latency_s[i] / max_latency
            : 0.0;
    reward_sum_[id] += gain - kLatencyWeight * rel_latency;
    pulls_[id] += 1;
  }
}

}  // namespace fedl::core
