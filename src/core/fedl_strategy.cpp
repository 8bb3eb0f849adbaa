#include "core/fedl_strategy.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "obs/metrics.h"

namespace fedl::core {
namespace {

// Clients whose post-rounding selection bit had to be flipped to bring the
// integral selection back under the learner's cap.
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
      const double shortfall =
          cfg_.fairness.min_rate -
          participation_rate(participation(), last_frac_.slots[i]);
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
  if (cfg_.independent_rounding) {
    independent_round_in_place(rounded_x_, rng_);
  } else {
    rdcs_round_in_place(rounded_x_, rng_, rdcs_scratch_);
  }

  // --- feasibility repair ---------------------------------------------------
  // RDCS preserves Σx̃ in expectation but a realization can land below the
  // participation floor or above the budget cap (Algorithm 2 preserves Σx,
  // not Σc·x). Repair deterministically against the learner's own feasible
  // region: top up to the floor n_eff (n_min shrunk to what the remaining
  // budget can rent — NOT the raw n_min, which may be unaffordable) by
  // fraction, then fit under the learner's cap, which is at most the
  // remaining budget (budget.h). The fit never drops below n_eff, and its
  // fallback, the n_eff cheapest, fits the cap by the learner's
  // construction, so the committed selection can never overdraw the ledger.
  const std::size_t n_eff = last_frac_.n_eff;
  std::size_t count = 0;
  for (std::size_t i = 0; i < k; ++i)
    count += rounded_x_[i] > 0.5 ? 1u : 0u;
  if (count < n_eff) {
    order_.resize(k);
    std::iota(order_.begin(), order_.end(), std::size_t{0});
    std::stable_sort(order_.begin(), order_.end(),
                     [&](std::size_t a, std::size_t b) {
                       return last_frac_.x[a] > last_frac_.x[b];
                     });
    for (std::size_t oi = 0; oi < k && count < n_eff; ++oi) {
      const std::size_t i = order_[oi];
      if (rounded_x_[i] < 0.5) {
        rounded_x_[i] = 1.0;
        ++count;
      }
    }
  }
  const std::size_t repaired = fit_under_cap(rounded_x_, last_frac_.cost,
                                             last_frac_.cap, n_eff, order_);
  if (repaired > 0)
    repaired_clients().add(static_cast<std::uint64_t>(repaired));

  picked_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    if (rounded_x_[i] <= 0.5) continue;
    picked_.push_back(i);
    dec.selected.push_back(last_frac_.ids[i]);
  }
  FEDL_CHECK_GE(picked_.size(), n_eff)
      << "the fit fell back to nobody: the learner's floor exceeds its cap";
  dec.num_iterations = rho_to_iters(last_frac_.rho, cfg_.l_max);
  learner_.record_participation(last_frac_, picked_);

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
