#include "core/fedl_strategy.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"

namespace fedl::core {
namespace {

// Clients whose post-rounding selection bit had to be flipped to bring the
// integral selection back under min(cap, remaining budget).
const obs::Counter& repaired_clients() {
  static const obs::Counter c("budget.repaired_clients");
  return c;
}

// Fairness: fraction boost per unit of relative quota shortfall.
constexpr double kFairnessBoost = 0.6;

}  // namespace

FedLStrategy::FedLStrategy(std::size_t num_clients, FedLConfig cfg)
    : cfg_(cfg),
      learner_(num_clients, cfg.learner),
      rng_(cfg.seed) {}

Decision FedLStrategy::decide(const sim::EpochContext& ctx,
                              const BudgetLedger& budget) {
  Decision dec;
  last_frac_ = learner_.decide(ctx, budget);
  const std::size_t k = last_frac_.ids.size();
  if (k == 0) {
    unobserved_.insert_or_assign(ctx.epoch, last_frac_);
    return dec;
  }

  // Fairness extension (future work, §7): boost the fraction of clients
  // whose long-term participation rate trails the quota, proportionally to
  // the shortfall. Applied pre-rounding so RDCS's marginal guarantee holds
  // for the adjusted fractions.
  if (cfg_.fairness.enabled &&
      participation().participation_epochs() >=
          cfg_.fairness.warmup_epochs) {
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t id = last_frac_.ids[i];
      const double shortfall =
          cfg_.fairness.min_rate -
          participation_rate(participation().get(id));
      if (shortfall > 0.0) {
        last_frac_.x[i] = std::min(
            1.0, last_frac_.x[i] + kFairnessBoost * shortfall /
                                       cfg_.fairness.min_rate);
      }
    }
  }

  unobserved_.insert_or_assign(ctx.epoch, last_frac_);

  // Round the fractional selections (Algorithm 2) on a copy: observe()
  // consumes the fractional x̃, so last_frac_.x must stay fractional.
  rounded_x_ = last_frac_.x;
  identity_idx_.resize(k);
  std::iota(identity_idx_.begin(), identity_idx_.end(), std::size_t{0});
  if (cfg_.independent_rounding) {
    independent_round_subset(rounded_x_, identity_idx_, rng_);
  } else {
    rdcs_round_subset(rounded_x_, identity_idx_, rng_, rdcs_scratch_);
  }

  // --- feasibility repair ---------------------------------------------------
  // RDCS preserves Σx̃ in expectation but a realization can land below the
  // participation floor or above the budget cap (Algorithm 2 preserves Σx,
  // not Σc·x). Repair deterministically against the learner's own feasible
  // region: floor = n_eff (n_min shrunk to what the remaining budget can
  // rent — NOT the raw n_min, which may be unaffordable), ceiling =
  // min(cap, remaining).
  order_.resize(k);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  std::stable_sort(order_.begin(), order_.end(),
                   [&](std::size_t a, std::size_t b) {
                     return last_frac_.x[a] > last_frac_.x[b];
                   });

  const std::size_t n_eff = std::min<std::size_t>(
      std::max<std::size_t>(last_frac_.n_eff, 1), k);
  std::size_t count = 0;
  for (std::size_t i = 0; i < k; ++i)
    count += rounded_x_[i] > 0.5 ? 1u : 0u;
  for (std::size_t oi = 0; oi < k && count < n_eff; ++oi) {
    const std::size_t i = order_[oi];
    if (rounded_x_[i] < 0.5) {
      rounded_x_[i] = 1.0;
      ++count;
    }
  }

  // Budget repair: drop rounded-up clients most-expensive-first, never below
  // the n_eff floor, until Σc ≤ min(cap, remaining). If the floor is reached
  // and the selection is still over, fall back to the n_eff cheapest
  // candidates — affordable by the learner's construction of n_eff, so the
  // committed selection can never overdraw the ledger.
  const double limit = std::min(last_frac_.cap, budget.remaining());
  double cost = 0.0;
  for (std::size_t i = 0; i < k; ++i)
    if (rounded_x_[i] > 0.5) cost += last_frac_.cost[i];
  std::size_t repaired = 0;
  if (cost > limit) {
    cost_order_.resize(k);
    std::iota(cost_order_.begin(), cost_order_.end(), std::size_t{0});
    std::stable_sort(cost_order_.begin(), cost_order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return last_frac_.cost[a] > last_frac_.cost[b];
                     });
    for (std::size_t oi = 0; oi < k; ++oi) {
      if (cost <= limit || count <= n_eff) break;
      const std::size_t i = cost_order_[oi];
      if (rounded_x_[i] < 0.5) continue;
      rounded_x_[i] = 0.0;
      --count;
      cost -= last_frac_.cost[i];
      ++repaired;
    }
    if (cost > limit) {
      // At the floor and still over the cap: swap to the cheapest n_eff.
      std::stable_sort(cost_order_.begin(), cost_order_.end(),
                       [&](std::size_t a, std::size_t b) {
                         return last_frac_.cost[a] < last_frac_.cost[b];
                       });
      target_.assign(k, 0);
      for (std::size_t oi = 0; oi < n_eff; ++oi)
        target_[cost_order_[oi]] = 1;
      cost = 0.0;
      count = n_eff;
      for (std::size_t i = 0; i < k; ++i) {
        const bool was = rounded_x_[i] > 0.5;
        const bool now = target_[i] != 0;
        if (was != now) ++repaired;
        rounded_x_[i] = now ? 1.0 : 0.0;
        if (now) cost += last_frac_.cost[i];
      }
    }
    repaired_clients().add(static_cast<std::uint64_t>(repaired));
  }
  FEDL_CHECK_LE(cost, limit + 1e-9 * (1.0 + limit))
      << "post-repair selection exceeds the budget cap";

  for (std::size_t i = 0; i < k; ++i)
    if (rounded_x_[i] > 0.5) dec.selected.push_back(last_frac_.ids[i]);
  dec.num_iterations = rho_to_iters(last_frac_.rho, cfg_.l_max);
  learner_.record_participation(last_frac_.ids, dec.selected);

  FEDL_DEBUG << "FedL: |S|=" << dec.selected.size()
             << " l=" << dec.num_iterations << " rho=" << last_frac_.rho;
  return dec;
}

void FedLStrategy::observe(const sim::EpochContext& ctx,
                           const Decision& decision,
                           const fl::EpochOutcome& outcome) {
  (void)decision;
  // The outcome meets the fractional decision of its own epoch.
  const auto it = unobserved_.find(ctx.epoch);
  FEDL_CHECK(it != unobserved_.end())
      << "observe() of epoch " << ctx.epoch
      << ": no decide() of that epoch awaits an outcome";
  if (!it->second.ids.empty()) learner_.observe(it->second, outcome);
  unobserved_.erase(it);
}

}  // namespace fedl::core
