#include "core/baselines.h"

#include <algorithm>
#include <numeric>

namespace fedl::core {
namespace {

// The decision for `chosen` (0/1 over E_t) after fitting it under the paced
// cap with a floor of one client, the fit FedL's repair makes with its own
// floor (budget.h).
Decision fit_decision(const sim::EpochContext& ctx, const BudgetLedger& budget,
                      std::size_t n_select, std::vector<double>& chosen,
                      std::size_t iterations) {
  std::vector<double> cost;
  cost.reserve(ctx.available.size());
  for (const auto& o : ctx.available) cost.push_back(o.cost);
  std::vector<std::size_t> order;
  fit_under_cap(chosen, cost, paced_cap(ctx, n_select, budget.remaining()),
                /*floor=*/1, order);
  Decision d;  // E_t is ordered by id, so the selection comes out sorted
  for (std::size_t i = 0; i < chosen.size(); ++i)
    if (chosen[i] > 0.5) d.selected.push_back(ctx.available[i].id);
  d.num_iterations = iterations;
  return d;
}

}  // namespace

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
  std::vector<double> chosen(k, 0.0);
  for (std::size_t i : rng_.sample_without_replacement(k, want))
    chosen[i] = 1.0;
  return fit_decision(ctx, budget, cfg_.n_select, chosen, cfg_.iterations);
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

  const double cap = paced_cap(ctx, cfg_.base.n_select, budget.remaining());
  Decision d;
  double cost = 0.0;
  for (std::size_t i : order) {
    const auto& o = ctx.available[i];
    const double round_latency = static_cast<double>(cfg_.base.iterations) *
                                 (o.tau_loc + o.tau_cm_est);
    if (round_latency > cfg_.deadline_s) break;  // sorted: all later are slower
    if (cost + o.cost > cap) continue;
    d.selected.push_back(o.id);
    cost += o.cost;
  }
  // FedCS still needs someone; admit the fastest affordable client if the
  // deadline excluded everyone.
  if (d.selected.empty()) {
    for (std::size_t i : order) {
      if (ctx.available[i].cost <= cap) {
        d.selected.push_back(ctx.available[i].id);
        break;
      }
    }
  }
  std::sort(d.selected.begin(), d.selected.end());
  d.num_iterations = cfg_.base.iterations;
  return d;
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
  std::vector<double> chosen(k, 0.0);
  for (std::size_t c = 0; c < want; ++c) chosen[candidates[c]] = 1.0;
  return fit_decision(ctx, budget, cfg_.base.n_select, chosen,
                      cfg_.base.iterations);
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
