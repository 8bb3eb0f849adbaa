#include "fl/dane.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/math_util.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace fedl::fl {

LocalOracle::LocalOracle(nn::Model* scratch, const nn::Batch* batch)
    : scratch_(scratch), batch_(batch) {
  FEDL_CHECK(scratch != nullptr);
  FEDL_CHECK(batch != nullptr);
  FEDL_CHECK_GT(batch->size(), 0u);
}

std::size_t LocalOracle::dim() const { return scratch_->num_params(); }

double LocalOracle::loss_grad(const nn::ParamVec& w, nn::ParamVec* grad) const {
  FEDL_CHECK_EQ(w.size(), dim());
  scratch_->set_params_flat(w);
  if (!grad) return scratch_->evaluate(*batch_).loss;
  const nn::EvalResult r = scratch_->forward_backward(*batch_);
  scratch_->grads_flat_into(*grad);
  return r.loss;
}

LocalUpdate dane_local_step(const LocalOracle& oracle, const nn::ParamVec& w,
                            const nn::ParamVec& global_grad,
                            const DaneConfig& cfg) {
  const std::size_t p = oracle.dim();
  FEDL_CHECK_EQ(w.size(), p);

  // Rule-dependent surrogate coefficients:
  //   kDane:    G(d) = F(w+d) + prox/2‖d‖² + linearᵀd, linear = σ2ḡ − ∇F(w)
  //   kFedProx: G(d) = F(w+d) + prox/2‖d‖²,            linear = 0
  //   kSgd:     G(d) = F(w+d),                          linear = 0, prox = 0
  const bool use_linear = cfg.rule == LocalUpdateRule::kDane;
  const double prox =
      cfg.rule == LocalUpdateRule::kSgd ? 0.0 : cfg.sigma1;

  LocalUpdate out;
  nn::ParamVec local_grad;
  out.loss_before = oracle.loss_grad(w, &local_grad);
  nn::ParamVec linear(p, 0.0f);
  if (use_linear) {
    if (global_grad.empty()) {
      // Bootstrap: treat ḡ = ∇F_k(w), so linear = (σ2 − 1)·∇F_k(w).
      for (std::size_t i = 0; i < p; ++i)
        linear[i] = static_cast<float>((cfg.sigma2 - 1.0) *
                                       static_cast<double>(local_grad[i]));
    } else {
      FEDL_CHECK_EQ(global_grad.size(), p);
      for (std::size_t i = 0; i < p; ++i)
        linear[i] = static_cast<float>(
            cfg.sigma2 * static_cast<double>(global_grad[i]) -
            static_cast<double>(local_grad[i]));
    }
  }

  // G(0) = F_k(w) + 0 + 0 for every rule.
  out.surrogate_initial = out.loss_before;

  nn::OptimizerPtr opt = nn::make_optimizer(cfg.optimizer, cfg.sgd_step);
  nn::ParamVec d(p, 0.0f);
  nn::ParamVec shifted = w;
  // ∇F_k(w + 0): the gradient already computed at w.
  nn::ParamVec grad_f = std::move(local_grad);
  double f_at_d = out.loss_before;
  // Per-step buffers, allocated once per call.
  nn::ParamVec g(p);
  nn::ParamVec before(p);

  for (std::size_t step = 0; step < cfg.sgd_steps; ++step) {
    // ∇G(d) = ∇F_k(w + d) + prox·d + linear.
    if (step > 0) f_at_d = oracle.loss_grad(shifted, &grad_f);
    for (std::size_t i = 0; i < p; ++i)
      g[i] = grad_f[i] + static_cast<float>(prox) * d[i] + linear[i];
    if (cfg.grad_clip > 0.0) clip_norm(g, cfg.grad_clip);
    // The optimizer owns the update direction; track the total correction d
    // and the shifted parameters together.
    before = d;
    opt->step(d, g);
    for (std::size_t i = 0; i < p; ++i) shifted[i] += d[i] - before[i];
  }

  // Final surrogate value and gradient for the η estimate.
  f_at_d = oracle.loss_grad(shifted, &grad_f);
  out.loss_after = f_at_d;
  double g_sq = 0.0;
  double lin_dot = 0.0;
  double d_sq = 0.0;
  for (std::size_t i = 0; i < p; ++i) {
    const double gi = static_cast<double>(grad_f[i]) +
                      prox * static_cast<double>(d[i]) +
                      static_cast<double>(linear[i]);
    g_sq += gi * gi;
    lin_dot += static_cast<double>(linear[i]) * static_cast<double>(d[i]);
    d_sq += static_cast<double>(d[i]) * static_cast<double>(d[i]);
  }
  out.grad_norm = std::sqrt(g_sq);
  out.surrogate_final = f_at_d + 0.5 * prox * d_sq + lin_dot;

  // Strong-convexity lower bound: G* ≥ G(d) − ‖∇G(d)‖² / (2(γ + prox)).
  const double curvature = cfg.gamma + prox;
  FEDL_CHECK_GT(curvature, 0.0)
      << "kSgd needs gamma > 0 (Model::l2_reg) for the eta estimate";
  const double gap_final = g_sq / (2.0 * curvature);
  const double gap_initial = std::max(
      out.surrogate_initial - (out.surrogate_final - gap_final), 1e-12);
  out.eta = clamp(gap_final / gap_initial, 0.0, 1.0 - 1e-6);

  out.d = std::move(d);
  return out;
}

}  // namespace fedl::fl
