// Dynamic regret and dynamic fit tracking (§5).
//
//   Reg_o = Σ_t f_t(Φ_t) − Σ_t f_t(Φ*_t),   f_t(Φ) = Σ_k ρ x_k (τ^loc+τ^cm)
//   Fit_o = ‖[Σ_t h_t(Φ_t)]+‖
//
// Φ*_t is the per-epoch minimizer of f_t over the relaxed feasible set: for
// a fixed minimum participation n and per-epoch budget cap, f_t is minimized
// at ρ = 1 with the n cheapest-latency affordable clients — computable in
// closed form by the greedy routine below (the same structure the paper's
// oracle uses).
#pragma once

#include <cstddef>
#include <vector>

#include "core/budget.h"
#include "core/types.h"
#include "fl/engine.h"
#include "sim/environment.h"

namespace fedl::core {

struct RegretConfig {
  double theta = 0.5;     // θ in h^0
  std::size_t n_min = 5;  // minimum participation (for Φ*_t)
  double pacing = 1.5;    // same per-epoch cap the strategies use
};

// Per-epoch optimum value f_t(Φ*_t): the n fastest clients under the cost
// cap at ρ = 1. Returns 0 when nothing is available. When `picked` is
// non-null it receives the chosen client ids (the support of Φ*_t).
double per_epoch_optimum(const sim::EpochContext& ctx, double cost_cap,
                         std::size_t n_min,
                         std::vector<std::size_t>* picked = nullptr);

// Assumption 1–2 constants for Theorem 2's bound R_{T_C} (13a). Callers pick
// them for their scenario: G_f bounds ‖∇f_t‖, G_h bounds ‖h_t‖, R is the
// feasible-domain radius, ξ the Slater constant of Assumption 2.
struct TheoremConstants {
  double g_f = 1.0;
  double g_h = 1.0;
  double radius = 1.0;
  double xi = 1.0;
  double beta = 0.2;
  double delta = 0.5;
};

// ‖μ̂‖ from Lemma 2 (12). `v_h_step_max` is V̂(h), the largest one-step
// constraint drift; must be < xi (Assumption 2) or the bound is vacuous
// (returns +inf).
double lemma2_mu_bound(const TheoremConstants& c, double v_h_step_max);

// R_{T_C} from Theorem 2 (13a) given the measured path lengths
// V({Φ*}) and V({h}) and the horizon T_C.
double theorem2_regret_bound(const TheoremConstants& c, double v_phi,
                             double v_h, double v_h_step_max, double t_c);

// Fit bound ‖μ̂‖/δ from Theorem 2 (13).
double theorem2_fit_bound(const TheoremConstants& c, double v_h_step_max);

class RegretTracker {
 public:
  RegretTracker(std::size_t num_clients, RegretConfig cfg);

  // Record one realized epoch of an online strategy.
  void record(const sim::EpochContext& ctx, const BudgetLedger& budget,
              const Decision& decision, double rho,
              const fl::EpochOutcome& outcome);

  std::size_t epochs() const { return epochs_; }
  double online_objective() const { return online_obj_; }
  double offline_objective() const { return offline_obj_; }
  double regret() const { return online_obj_ - offline_obj_; }
  // ‖[Σ_t h_t]+‖ over the (M+1)-dimensional accumulated constraint vector.
  double fit() const;

  // Measured path lengths for Theorem 2's bound:
  // V({Φ*}) = Σ‖Φ*_t − Φ*_{t−1}‖ over the greedy per-epoch optima (13b),
  // V({h})  = Σ‖[h_t − h_{t−1}]+‖ evaluated at the realized decisions — an
  // observable surrogate of (13c)'s max over Φ (documented approximation).
  double v_phi() const { return v_phi_; }
  double v_h() const { return v_h_; }
  double v_h_step_max() const { return v_h_step_max_; }

 private:
  RegretConfig cfg_;
  std::size_t num_clients_;
  std::size_t epochs_ = 0;
  double online_obj_ = 0.0;
  double offline_obj_ = 0.0;
  std::vector<double> fit_acc_;  // Σ_t h_t(Φ_t), dims [h^0, h^1..h^M]
  double v_phi_ = 0.0;
  double v_h_ = 0.0;
  double v_h_step_max_ = 0.0;
  std::vector<double> prev_opt_;  // Φ*_{t−1} indicator (+ρ), dims M+1
  std::vector<double> prev_h_;    // h_{t−1} at the realized decision
  bool has_prev_ = false;
};

}  // namespace fedl::core
