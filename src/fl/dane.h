// Local solvers for the federated iteration (paper §3.1, Model Training).
//
// The paper trains with the DANE method following FEDL [7]: in iteration i
// of epoch t, client k receives the global model w and the aggregated
// gradient ḡ = J_t(w) and computes a correction d by minimizing
//
//   G_{t,k}(d) = F_k(w + d) + (σ1/2)‖d‖² + (σ2·ḡ − ∇F_k(w))ᵀ d
//
// whose gradient is ∇F_k(w + d) + σ1·d + σ2·ḡ − ∇F_k(w). At d = 0 the
// surrogate gradient equals σ2·ḡ — descent directions are anchored to the
// *global* gradient, which is what lets DANE converge under heterogeneous
// local data.
//
// Two related-work rules are provided for the local-solver ablation
// (bench/abl_local_solver):
//  * kFedProx (Li et al. [15]): G(d) = F_k(w+d) + (σ1/2)‖d‖² — the proximal
//    term without the gradient correction;
//  * kSgd (FedAvg [19]): G(d) = F_k(w+d) — plain local SGD.
// The inner minimization can use SGD, Momentum (MFL [17]) or Adam ([22]).
//
// Every rule also reports the local convergence accuracy η (constraint
// (3c)): with G being (γ + σ1)-strongly convex,
// G* ≥ G(d) − ‖∇G(d)‖²/(2(γ+σ1)), so η̂ = [G(d) − Ĝ*]/[G(0) − Ĝ*] is a
// computable estimate of the paper's η^i_{t,k}.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/rng.h"
#include "nn/model.h"

namespace fedl::fl {

enum class LocalUpdateRule {
  kDane,     // paper's rule (default)
  kFedProx,  // proximal term only
  kSgd,      // plain local descent
};

struct DaneConfig {
  LocalUpdateRule rule = LocalUpdateRule::kDane;
  double sigma1 = 0.5;      // proximal weight σ1 (FedProx's μ)
  double sigma2 = 1.0;      // global-gradient weight σ2 (DANE only)
  double sgd_step = 0.05;   // α
  std::size_t sgd_steps = 5;  // max gradient steps per iteration
  double grad_clip = 10.0;  // stabilizes early CNN training
  // Strong convexity constant γ of F_k; should match Model::l2_reg.
  double gamma = 1e-3;
  // Inner optimizer: "sgd", "momentum", or "adam".
  std::string optimizer = "sgd";
};

struct LocalUpdate {
  nn::ParamVec d;             // the model correction d_{t,k}
  double eta = 0.0;           // η̂: estimated local convergence accuracy, [0,1)
  double loss_before = 0.0;   // F_k(w)
  double loss_after = 0.0;    // F_k(w + d)
  double surrogate_initial = 0.0;  // G(0)
  double surrogate_final = 0.0;    // G(d)
  double grad_norm = 0.0;     // ‖∇G(d)‖ at the returned d
};

// Differentiable oracle for a client's local objective: evaluates loss and
// gradient of F_k at arbitrary parameters using a scratch model. The scratch
// model's architecture must match the parameter dimension. Every evaluation
// loads its point into the scratch model first, so one scratch model can
// serve any number of clients in turn.
class LocalOracle {
 public:
  LocalOracle(nn::Model* scratch, const nn::Batch* batch);

  std::size_t dim() const;
  // loss F_k(w); writes ∇F_k(w) into grad when non-null.
  double loss_grad(const nn::ParamVec& w, nn::ParamVec* grad) const;

 private:
  nn::Model* scratch_;
  const nn::Batch* batch_;
};

// Runs the configured surrogate minimization. `global_grad` is ḡ (σ2 term);
// passing an empty vector treats ḡ = ∇F_k(w) (first iteration bootstrap,
// making the linear term vanish when σ2 = 1). Ignored by kFedProx/kSgd.
LocalUpdate dane_local_step(const LocalOracle& oracle, const nn::ParamVec& w,
                            const nn::ParamVec& global_grad,
                            const DaneConfig& cfg);

}  // namespace fedl::fl
