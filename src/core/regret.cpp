#include "core/regret.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "common/math_util.h"

namespace fedl::core {

double per_epoch_optimum(const sim::EpochContext& ctx, double cost_cap,
                         std::size_t n_min,
                         std::vector<std::size_t>* picked) {
  if (picked) picked->clear();
  const std::size_t k = ctx.available.size();
  if (k == 0) return 0.0;
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto& oa = ctx.available[a];
    const auto& ob = ctx.available[b];
    return oa.tau_loc + oa.tau_cm_est < ob.tau_loc + ob.tau_cm_est;
  });
  const std::size_t n = std::min<std::size_t>(n_min, k);
  double value = 0.0;
  double cost = 0.0;
  std::size_t taken = 0;
  std::vector<bool> used(k, false);
  for (std::size_t i : order) {
    if (taken >= n) break;
    const auto& o = ctx.available[i];
    if (cost + o.cost > cost_cap && taken > 0) continue;
    value += o.tau_loc + o.tau_cm_est;  // ρ* = 1
    cost += o.cost;
    ++taken;
    used[i] = true;
    if (picked) picked->push_back(o.id);
  }
  // Fastest-first may run out of affordable clients before reaching n; fill
  // the quota cheapest-first so the minimum-participation constraint (3b)
  // is met whenever the cap permits it at all.
  if (taken < n) {
    std::vector<std::size_t> by_cost(k);
    std::iota(by_cost.begin(), by_cost.end(), 0);
    std::stable_sort(by_cost.begin(), by_cost.end(),
                     [&](std::size_t a, std::size_t b) {
                       return ctx.available[a].cost < ctx.available[b].cost;
                     });
    for (std::size_t i : by_cost) {
      if (taken >= n) break;
      if (used[i]) continue;
      const auto& o = ctx.available[i];
      if (cost + o.cost > cost_cap) continue;
      value += o.tau_loc + o.tau_cm_est;
      cost += o.cost;
      ++taken;
      used[i] = true;
      if (picked) picked->push_back(o.id);
    }
  }
  return value;
}

double lemma2_mu_bound(const TheoremConstants& c, double v_h_step_max) {
  if (v_h_step_max >= c.xi) return std::numeric_limits<double>::infinity();
  const double numerator = 2.0 * c.g_f * c.radius +
                           c.radius * c.radius / (2.0 * c.beta) +
                           c.delta * c.g_h * c.g_h / 2.0;
  return c.delta * c.g_h + numerator / (c.xi - v_h_step_max);
}

double theorem2_regret_bound(const TheoremConstants& c, double v_phi,
                             double v_h, double v_h_step_max, double t_c) {
  const double mu_hat = lemma2_mu_bound(c, v_h_step_max);
  return c.beta * c.g_f * c.g_f * t_c / 2.0 + mu_hat * v_h +
         c.delta * c.g_h * c.g_h * t_c / 2.0 +
         c.radius * v_phi / c.beta +
         c.radius * c.radius / (2.0 * c.beta);
}

double theorem2_fit_bound(const TheoremConstants& c, double v_h_step_max) {
  return lemma2_mu_bound(c, v_h_step_max) / c.delta;
}

RegretTracker::RegretTracker(std::size_t num_clients, RegretConfig cfg)
    : cfg_(cfg),
      num_clients_(num_clients),
      fit_acc_(num_clients + 1, 0.0) {}

void RegretTracker::record(const sim::EpochContext& ctx, double remaining,
                           const Decision& decision, double rho,
                           const fl::EpochOutcome& outcome) {
  ++epochs_;

  // Online objective: f_t(Φ_t) = Σ_{k∈S} ρ (τ^loc + τ^cm), with realized
  // per-client latencies when available.
  double f_online = 0.0;
  for (std::size_t i = 0; i < decision.selected.size(); ++i) {
    if (i < outcome.client_latency_s.size()) {
      f_online += outcome.client_latency_s[i];
    } else if (const auto* obs = ctx.find(decision.selected[i])) {
      f_online += static_cast<double>(decision.num_iterations) *
                  (obs->tau_loc + obs->tau_cm_est);
    }
  }
  online_obj_ += f_online;

  // Offline per-epoch optimum under the paced cap the strategy saw.
  const double cap = paced_cap(ctx, cfg_.n_min, remaining);
  std::vector<std::size_t> opt_ids;
  offline_obj_ +=
      per_epoch_optimum(ctx, std::max(cap, 0.0), cfg_.n_min, &opt_ids);

  // Per-epoch constraint vector h_t at the realized decision: h^0 observed,
  // h^k from realized η of participants.
  std::vector<double> h_now(num_clients_ + 1, 0.0);
  h_now[0] = outcome.train_loss_all - cfg_.theta;
  for (std::size_t i = 0; i < decision.selected.size(); ++i) {
    const std::size_t id = decision.selected[i];
    if (id >= num_clients_ || i >= outcome.client_eta.size()) continue;
    // h^k = η x ρ − ρ + 1 with x = 1 for participants.
    h_now[1 + id] = outcome.client_eta[i] * rho - rho + 1.0;
  }
  for (std::size_t d = 0; d < h_now.size(); ++d) fit_acc_[d] += h_now[d];

  // Path lengths for Theorem 2: Φ*_t as an indicator vector over clients
  // (+ ρ* = 1 in the last coordinate), h drift at the realized decisions.
  std::vector<double> opt_vec(num_clients_ + 1, 0.0);
  opt_vec[num_clients_] = 1.0;  // ρ* = 1
  for (std::size_t id : opt_ids)
    if (id < num_clients_) opt_vec[id] = 1.0;
  if (has_prev_) {
    double d_phi_sq = 0.0;
    for (std::size_t d = 0; d < opt_vec.size(); ++d) {
      const double diff = opt_vec[d] - prev_opt_[d];
      d_phi_sq += diff * diff;
    }
    v_phi_ += std::sqrt(d_phi_sq);

    std::vector<double> h_diff(h_now.size());
    for (std::size_t d = 0; d < h_now.size(); ++d)
      h_diff[d] = h_now[d] - prev_h_[d];
    const double step = positive_part_norm(h_diff);
    v_h_ += step;
    v_h_step_max_ = std::max(v_h_step_max_, step);
  }
  prev_opt_ = std::move(opt_vec);
  prev_h_ = std::move(h_now);
  has_prev_ = true;
}

double RegretTracker::fit() const { return positive_part_norm(fit_acc_); }

}  // namespace fedl::core
