// The online learning algorithm of FedL (§4.3): fractional decisions by
// alternating a modified proximal descent step (8) on the primal Φ̃ and a
// dual ascent step (9) on the Lagrange multipliers μ.
//
// Decision variables per epoch: Φ̃ = [x̃_{k∈E_t}, ρ], ρ = 1/(1−η_t).
// The learner keeps persistent per-client state across epochs — fractional
// memory x̃_k, estimated local convergence accuracy η̂_k, and estimated
// per-iteration loss reduction Δ̂_k — which is exactly the "historic learning
// results" FedL learns from. That state lives in a pooled sparse store
// (sparse_state.h): every candidate of a decision owns a 24 B record (x̃_k,
// μ^k), only clients that were ever selected also own one for η̂_k and Δ̂_k,
// and never-seen clients read as the priors and cost nothing, so the
// learner's footprint is O(clients ever in E_t), not O(M). decide() resolves
// each candidate's record slot once; the decision carries the slots to
// observe() and record_participation(). The records carry the fairness
// quota's participation counts, so the whole strategy holds nothing sized
// by the roster; client ids must fit the pool's 32-bit index
// (num_clients ≤ 2³² − 1).
//
// Constraint encoding for the descent step:
//  * objective gradient ∇f_t: ∂/∂x̃_k = ρ·(τ^loc_k + τ^cm_k),
//    ∂/∂ρ = Σ_k x̃_k (τ^loc_k + τ^cm_k);
//  * h^0 (global convergence, (3d)) is linearized through the per-client
//    marginal loss-reduction estimates:
//      h^0(Φ) = L̂ − (ρ/n)·Σ_k x̃_k Δ̂_k − θ
//    where L̂ is the last observed global loss (the observable surrogate of
//    F_t(w^{l_t}) at decision time);
//  * h^k (local convergence, (3c)) uses the paper's bilinear form with the
//    learned per-client accuracy: h^k(Φ) = η̂_k·x̃_k·ρ − ρ + 1;
//  * feasible set: x̃ ∈ [0,1]^{E_t}, ρ ∈ [1, ρ_max], Σ c_k x̃_k ≤ cap_t
//    (budget pacing within (5a)), Σ x̃_k ≥ n (5b).
//
// Candidate pruning (selection_width > 0): before the prox solve the
// availability set is cut to at most `selection_width` coordinates — the
// n_min cheapest clients (so the Σx ≥ n floor stays feasible and the
// infeasibility logic is unchanged) plus the best remaining clients by the
// paced utility score Δ̂_k·ρ/c_k, chosen with bounded heaps in
// O(|E_t| log width). Width 0 (default) disables pruning and reproduces the
// full-E_t solve bit-for-bit; a width ≥ |E_t| selects everyone and is
// likewise byte-identical.
//
// Timing note: rent prices c_{t,k} and latency estimates are posted at the
// start of the epoch (they are part of the observation), while everything
// that depends on the training itself (w, d, η, losses) is revealed only
// after the decision — matching the paper's list of post-decision inputs.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/budget.h"
#include "core/sparse_state.h"
#include "fl/engine.h"
#include "sim/environment.h"

namespace fedl::core {

// Priors for a client the learner has never observed, and for the last
// global loss L̂ before the first observation.
inline constexpr double kInitEta = 0.5;         // local accuracy η̂
inline constexpr double kInitDeltaEst = 0.1;    // optimistic per-iteration Δ̂
inline constexpr double kInitLoss = 2.303;  // ln(10): a random 10-class model

struct LearnerConfig {
  // Step sizes; Corollary 1 prescribes β = δ = O(T_C^{-1/3}), which is ≈0.3
  // for the horizons induced by the evaluation budgets (T_C ≈ 20–60).
  double beta = 0.2;   // primal proximal step size β
  double delta = 0.5;  // dual ascent step size δ
  double theta = 0.5;    // desired upper bound θ of the global loss (3d)
  std::size_t n_min = 5;  // minimum participants per epoch (3b)
  double rho_max = 8.0;   // cap on ρ (bounds l_t; Assumption 1's radius R)
  double pacing = 1.5;    // per-epoch spend cap = pacing · n · mean cost
  double mu_max = 100.0;  // dual clip, numerical guard for ‖μ̂‖ of Lemma 2
  double ema = 0.3;       // smoothing for η̂ and Δ̂ estimates
  // Max coordinates the prox solve sees per epoch (0 = all of E_t).
  std::size_t selection_width = 0;
  // UCB-style exploration bonus β_w for the width-pruning utility score:
  //   score_k = Δ̂_k·ρ/c_k + β_w·sqrt(log t / n_k)
  // where n_k counts the epochs client k actually produced an observation.
  // A client the pruning has starved keeps n_k frozen while log t grows, so
  // its bonus eventually beats any exploit score and it re-enters the
  // candidate set (ROADMAP item 1). 0 (default) disables the bonus and
  // reproduces the pure-exploit pruning bit-for-bit.
  double width_explore = 0.0;
};

// Fractional decision for one epoch over the candidate set (all of E_t
// without pruning; a subset of it with). Clients of E_t outside `ids`
// implicitly have x̃ = 0 this epoch.
struct FractionalDecision {
  std::vector<std::size_t> ids;  // candidate client ids
  // The learner's record slot per candidate, parallel to ids: handles that
  // stay valid however the pool grows until the epoch is observed.
  std::vector<std::uint32_t> slots;
  std::vector<double> x;         // x̃_{t,k} ∈ [0,1], parallel to ids
  std::vector<double> cost;      // posted rent c_{t,k}, parallel to ids
  double rho = 1.0;              // ρ_t ≥ 1
  // Per-epoch spend cap the budget halfspace enforced on Σ c·x̃ — the
  // integral selection must be repaired back under it after rounding.
  double cap = 0.0;
  // Feasible participation floor (n_min shrunk to what the remaining
  // budget can rent); rounding repair must not drop below it.
  std::size_t n_eff = 0;
};

class OnlineLearner {
 public:
  OnlineLearner(std::size_t num_clients, LearnerConfig cfg);

  // Primal descent (8): produce the fractional decision for this epoch from
  // the stored anchor Φ̃_t, the current duals μ, and the epoch observation.
  FractionalDecision decide(const sim::EpochContext& ctx,
                            const BudgetLedger& budget);

  // Dual ascent (9) plus estimate updates from the realized epoch. Only
  // clients with a nonzero h^k this epoch (the decision's candidates) and
  // the selected clients' estimates are touched — unavailable clients'
  // state is bit-identical before and after. `frac` must come from this
  // learner's decide(); outcome.selected must not repeat an id.
  void observe(const FractionalDecision& frac,
               const fl::EpochOutcome& outcome);

  // Introspection for tests/benches.
  double mu0() const { return mu0_; }
  double mu_k(std::size_t client) const;  // dual μ^k of constraint h^k
  double rho() const { return rho_; }
  double x_fraction(std::size_t client) const;
  double eta_estimate(std::size_t client) const;
  double delta_estimate(std::size_t client) const;
  const LearnerConfig& config() const { return cfg_; }
  // Pooled-state footprint: clients holding a candidate record, and the
  // allocated capacity of the pool and the observe() scratch index (an
  // upper bound on their resident pages).
  std::size_t active_clients() const { return pool_.active(); }
  std::size_t resident_bytes() const;
  // Per-client state, including the participation counts (fairness.h).
  const ClientStatePool& pool() const { return pool_; }

  // Counts one non-empty decision's participation into its candidates'
  // records (decide() already allocated them): `picked` are the positions
  // in frac.ids of the selected clients.
  void record_participation(const FractionalDecision& frac,
                            const std::vector<std::size_t>& picked) {
    pool_.record_participation(frac.slots, picked);
  }

 private:
  // Fills cand_ with the candidate indices into ctx.available (sorted
  // ascending) and returns the full-E_t mean posted cost.
  double select_candidates(const sim::EpochContext& ctx);
  // Step (8)'s value at Φ = [x̃, ρ] (and its gradient when grad != nullptr)
  // over the candidates decide() staged in the scratch below.
  double step_objective(const std::vector<double>& phi,
                        std::vector<double>* grad) const;

  LearnerConfig cfg_;
  std::size_t num_clients_;
  ClientStatePool pool_;  // x̃_k, μ^k per candidate; η̂_k, Δ̂_k per selected
  double rho_;
  double mu0_;            // μ^0: dual of the global-loss constraint h^0
  double last_loss_;      // L̂ = F_t(w^{l_t}) of the last epoch

  // Grow-only per-epoch scratch (no steady-state allocation in decide()).
  std::vector<std::size_t> cand_;      // candidate indices into E_t
  std::vector<double> sorted_cost_;    // cost-sorted copy for the floor
  std::vector<double> tau_;            // τ^loc + τ^cm per candidate
  std::vector<double> eta_;            // η̂ per candidate
  std::vector<double> delta_;          // Δ̂ per candidate
  std::vector<double> anchor_;         // [x̃ anchor, ρ]
  std::vector<double> grad_f_;         // ∇f_t at the anchor
  std::vector<double> mu_local_;       // [μ^0, μ^k of candidates]
  std::vector<std::pair<double, std::size_t>> heap_;  // pruning heaps
  std::vector<unsigned char> in_cand_; // candidate membership by E_t index
  SlotIndex sel_index_;                // selected id → outcome index scratch
  std::vector<std::uint32_t> sel_slot_;  // record slot per outcome index
};

}  // namespace fedl::core
