#include "core/baselines.h"

#include <algorithm>
#include <numeric>

namespace fedl::core {
namespace {

// Drop selections (cheapest kept) until the total cost fits `cap`.
// `order_hint` lists candidate indices in drop-priority order (first dropped
// first); falls back to most-expensive-first when empty.
void enforce_cap(const sim::EpochContext& ctx, std::vector<std::size_t>& picks,
                 double cap) {
  auto cost_of = [&](std::size_t i) { return ctx.available[i].cost; };
  double total = 0.0;
  for (std::size_t i : picks) total += cost_of(i);
  if (total <= cap) return;
  // Drop the most expensive picks first.
  std::vector<std::size_t> order = picks;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return cost_of(a) > cost_of(b); });
  for (std::size_t victim : order) {
    if (total <= cap || picks.size() <= 1) break;
    auto it = std::find(picks.begin(), picks.end(), victim);
    if (it == picks.end()) continue;
    total -= cost_of(victim);
    picks.erase(it);
  }
  // If even one pick is unaffordable, keep only the cheapest affordable one.
  if (total > cap && picks.size() == 1) {
    std::size_t cheapest = picks[0];
    for (std::size_t i = 0; i < ctx.available.size(); ++i)
      if (cost_of(i) < cost_of(cheapest)) cheapest = i;
    picks.clear();
    if (cost_of(cheapest) <= cap) picks.push_back(cheapest);
  }
}

Decision to_decision(const sim::EpochContext& ctx,
                     const std::vector<std::size_t>& picks,
                     std::size_t iterations) {
  Decision d;
  for (std::size_t i : picks) d.selected.push_back(ctx.available[i].id);
  std::sort(d.selected.begin(), d.selected.end());
  d.num_iterations = iterations;
  return d;
}

}  // namespace

double per_epoch_cap(const sim::EpochContext& ctx, const BudgetLedger& budget,
                     std::size_t n, double pacing) {
  if (ctx.available.empty()) return 0.0;
  double mean_cost = 0.0;
  for (const auto& o : ctx.available) mean_cost += o.cost;
  mean_cost /= static_cast<double>(ctx.available.size());
  const double cap = pacing * static_cast<double>(n) * mean_cost;
  return std::min(cap, budget.remaining());
}

// --- FedAvg ------------------------------------------------------------------

FedAvgStrategy::FedAvgStrategy(BaselineConfig cfg)
    : cfg_(cfg), rng_(cfg.seed) {
  FEDL_CHECK_GT(cfg.n_select, 0u);
  FEDL_CHECK_GT(cfg.iterations, 0u);
}

Decision FedAvgStrategy::decide(const sim::EpochContext& ctx,
                                const BudgetLedger& budget) {
  const std::size_t k = ctx.available.size();
  if (k == 0) return {};
  const std::size_t want = std::min<std::size_t>(cfg_.n_select, k);
  auto picks = rng_.sample_without_replacement(k, want);
  enforce_cap(ctx, picks, per_epoch_cap(ctx, budget, cfg_.n_select, cfg_.pacing));
  return to_decision(ctx, picks, cfg_.iterations);
}

// --- FedCS ---------------------------------------------------------------------

FedCsStrategy::FedCsStrategy(FedCsConfig cfg)
    : cfg_(cfg), rng_(cfg.base.seed) {
  FEDL_CHECK_GT(cfg.deadline_s, 0.0);
}

Decision FedCsStrategy::decide(const sim::EpochContext& ctx,
                               const BudgetLedger& budget) {
  const std::size_t k = ctx.available.size();
  if (k == 0) return {};
  // FedCS greedily admits clients fastest-first while the epoch (l fixed
  // iterations of the slowest admitted client) still meets the deadline —
  // "select as many clients as possible" under the round deadline.
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& oa = ctx.available[a];
    const auto& ob = ctx.available[b];
    return oa.tau_loc + oa.tau_cm_est < ob.tau_loc + ob.tau_cm_est;
  });

  const double cap =
      per_epoch_cap(ctx, budget, cfg_.base.n_select, cfg_.base.pacing);
  std::vector<std::size_t> picks;
  double cost = 0.0;
  for (std::size_t i : order) {
    const auto& o = ctx.available[i];
    const double round_latency = static_cast<double>(cfg_.base.iterations) *
                                 (o.tau_loc + o.tau_cm_est);
    if (round_latency > cfg_.deadline_s) break;  // sorted: all later are slower
    if (cost + o.cost > cap) continue;
    picks.push_back(i);
    cost += o.cost;
  }
  // FedCS still needs someone; admit the fastest affordable client if the
  // deadline excluded everyone.
  if (picks.empty()) {
    for (std::size_t i : order) {
      if (ctx.available[i].cost <= cap) {
        picks.push_back(i);
        break;
      }
    }
  }
  return to_decision(ctx, picks, cfg_.base.iterations);
}

// --- Pow-d -------------------------------------------------------------------

PowDStrategy::PowDStrategy(std::size_t num_clients, PowDConfig cfg)
    : cfg_(cfg), rng_(cfg.base.seed), loss_est_(num_clients, 2.303) {
  FEDL_CHECK_GE(cfg.d, cfg.base.n_select);
}

Decision PowDStrategy::decide(const sim::EpochContext& ctx,
                              const BudgetLedger& budget) {
  const std::size_t k = ctx.available.size();
  if (k == 0) return {};
  const std::size_t d = std::min<std::size_t>(cfg_.d, k);
  auto candidates = rng_.sample_without_replacement(k, d);
  // Keep the n with the largest estimated local loss.
  std::sort(candidates.begin(), candidates.end(),
            [&](std::size_t a, std::size_t b) {
              return loss_est_[ctx.available[a].id] >
                     loss_est_[ctx.available[b].id];
            });
  const std::size_t want = std::min<std::size_t>(cfg_.base.n_select, d);
  std::vector<std::size_t> picks(
      candidates.begin(),
      candidates.begin() + static_cast<std::ptrdiff_t>(want));
  enforce_cap(ctx, picks,
              per_epoch_cap(ctx, budget, cfg_.base.n_select, cfg_.base.pacing));
  return to_decision(ctx, picks, cfg_.base.iterations);
}

void PowDStrategy::observe(const sim::EpochContext& ctx,
                           const Decision& decision,
                           const fl::EpochOutcome& outcome) {
  (void)ctx;
  // The selected clients reveal their local loss: track the pre-update loss.
  for (std::size_t i = 0; i < decision.selected.size(); ++i) {
    const std::size_t id = decision.selected[i];
    if (id >= loss_est_.size()) continue;
    if (i < outcome.client_loss_reduction.size()) {
      // loss_after = loss_before − reduction ⇒ new estimate for next time.
      loss_est_[id] = std::max(
          0.0, outcome.train_loss_selected);
    }
  }
  // Everyone drifts toward the global loss (their data follows the global
  // distribution in expectation) so stale estimates decay.
  for (auto& l : loss_est_)
    l = 0.95 * l + 0.05 * outcome.train_loss_all;
}

}  // namespace fedl::core
